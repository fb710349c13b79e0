// Faultcampaign runs a full fault-injection campaign: the standard
// van de Goor fault universe against pseudo-ring testing and the March
// baselines, reproducing the coverage comparison of experiment E6 at a
// custom size.
//
// It also demonstrates the three campaign engines: the per-fault
// oracle, the bit-parallel trace-replay engine (package sim), which
// packs 64 faulty machines into every uint64 word, and the compiled
// engine, which lowers the trace to a flat instruction program replayed
// allocation-free over per-worker arenas with fault collapsing.  All
// three produce identical results and are benchmarked here side by
// side, with per-engine faults/s.
//
// Finally it runs the same comparison as one campaign *session*
// (coverage.Plan) with cross-test fault dropping: the cheapest test
// runs first and every fault it detects is dropped from the remaining
// tests, so the session simulates a shrinking survivor set instead of
// re-simulating the full universe per algorithm — the structure behind
// BenchmarkSession's ≥3× speedup over back-to-back campaigns.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/report"
)

func main() {
	n, m := 64, 4
	u := fault.StandardUniverse(n, m, 20, 42)
	fmt.Printf("universe: %s — %d faults\n\n", u.Name, u.Len())

	mk := func() ram.Memory { return ram.NewWOM(n, m) }
	bgs := march.DataBackgrounds(m)
	gen := prt.PaperWOMConfig().Gen

	runners := []coverage.Runner{
		coverage.MarchRunner(march.MATSPlus(), bgs),
		coverage.MarchRunner(march.MarchCMinus(), bgs),
		coverage.PRTRunner(prt.StandardScheme3(gen)),
		coverage.PRTRunner(prt.ExtendedScheme(gen, 2)),
	}

	t := report.New("coverage campaign", "algorithm", "ops(clean)", "coverage", "worst class")
	for _, r := range runners {
		res := coverage.Campaign(r, u, mk, 0)
		if res.FalsePositive {
			fmt.Printf("WARNING: %s flags fault-free memory\n", res.Runner)
		}
		worstName, worst := "-", 1.0
		for _, c := range res.Classes() {
			if r := res.ByClass[c].Ratio(); r < worst {
				worst = r
				worstName = c.String()
			}
		}
		t.AddRowf(res.Runner,
			fmt.Sprintf("%d", res.OpsCleanRun),
			report.Percent(res.Detected, res.Total),
			fmt.Sprintf("%s (%.1f%%)", worstName, 100*worst))
	}
	t.Render(os.Stdout)

	// Drill into one algorithm's per-class breakdown.
	fmt.Println()
	res := coverage.Campaign(coverage.PRTRunner(prt.ExtendedScheme(gen, 2)), u, mk, 0)
	d := report.New("PRT-x2 per-class breakdown", "class", "detected", "total", "ratio")
	for _, c := range res.Classes() {
		s := res.ByClass[c]
		d.AddRowf(c.String(), fmt.Sprintf("%d", s.Detected),
			fmt.Sprintf("%d", s.Total), report.Percent(s.Detected, s.Total))
	}
	d.Render(os.Stdout)

	// Engine comparison: same campaign under the per-fault oracle, the
	// bit-parallel trace interpreter, and the compiled arena engine, on
	// a larger memory where the difference matters.  The "simulated"
	// column shows how many machines actually ran: the compiled engine
	// collapses each chunk's equivalent faults — here the mirrored
	// bridges of each adjacent pair, and the SA0/SA1 pairs March C−
	// reads in both polarities — and expands the representatives'
	// results back over the universe.
	fmt.Println()
	bigN := 512
	bigU := fault.Universe{Name: "saf+tf+cf", Faults: append(
		fault.SingleCellUniverse(bigN, 1),
		fault.CouplingUniverse(fault.AdjacentPairs(bigN))...)}
	bigMk := func() ram.Memory { return ram.NewBOM(bigN) }
	runner := coverage.MarchRunner(march.MarchCMinus(), nil)

	e := report.New(fmt.Sprintf("engine comparison — March C- on n=%d, %d faults", bigN, bigU.Len()),
		"engine", "coverage", "simulated", "wall time", "faults/s")
	for _, engine := range []coverage.Engine{coverage.EngineOracle, coverage.EngineBitParallel, coverage.EngineCompiled} {
		start := time.Now()
		r := coverage.CampaignEngine(runner, bigU, bigMk, 0, engine)
		el := time.Since(start)
		simulated := r.Total
		if r.Stats != nil {
			simulated = r.Stats.Reps
		}
		e.AddRowf(engine.String(), report.Percent(r.Detected, r.Total),
			fmt.Sprintf("%d", simulated),
			el.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(r.Total)/el.Seconds()))
	}
	e.Render(os.Stdout)

	// Campaign session with cross-test fault dropping: the same March
	// baselines over the big universe, cheapest test first, each fault
	// simulated only until some test detects it.  Per-stage survivor
	// counts show the universe collapsing test by test; the cumulative
	// row is byte-identical to what undropped runs would accumulate.
	fmt.Println()
	plan := coverage.Plan{
		Name: "march-session",
		Runners: []coverage.Runner{
			coverage.MarchRunner(march.MATSPlus(), nil),
			coverage.MarchRunner(march.MarchX(), nil),
			coverage.MarchRunner(march.MarchCMinus(), nil),
			coverage.MarchRunner(march.MarchB(), nil),
		},
		Universe: bigU,
		Memory:   bigMk,
		Drop:     true,
		Order:    coverage.OrderCheapestFirst,
		Cache:    coverage.SharedProgramCache(),
	}
	start := time.Now()
	session := plan.Run()
	el := time.Since(start)
	s := report.New(
		fmt.Sprintf("campaign session — fault dropping, cheapest-first, n=%d, %d faults, %s",
			bigN, bigU.Len(), el.Round(time.Millisecond)),
		"stage", "entered", "newly detected", "survivors")
	for _, st := range session.Stages {
		s.AddRowf(st.Runner,
			fmt.Sprintf("%d", st.Entered),
			fmt.Sprintf("%d", st.Detected),
			fmt.Sprintf("%d", st.Survivors))
	}
	s.AddRowf("cumulative", fmt.Sprintf("%d", session.Cumulative.Total), "",
		fmt.Sprintf("%d (%s)", session.Cumulative.Total-session.Cumulative.Detected,
			report.Percent(session.Cumulative.Detected, session.Cumulative.Total)))
	s.Render(os.Stdout)
}
