package repro

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bist"
	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/march"
	"repro/internal/markov"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/report"
	"repro/internal/xorsynth"
)

// This file implements the experiment harness: one function per paper
// artefact (figure or quantitative claim), each returning a
// report.Table with the rows the paper's evaluation corresponds to.
// bench_test.go wraps each in a Benchmark; cmd/faultcov prints them.

// sampleSeedOverride, when nonzero, replaces the per-experiment
// default seeds of every sampled coupling-pair draw (the faultcov
// -seed flag), so sampled tables are reproducible on demand under a
// caller-chosen seed.
var sampleSeedOverride atomic.Int64

// SetSampleSeed overrides the sampled-pair seeds used by the
// experiment harness (fault.SamplePairs / fault.StandardUniverse call
// sites); 0 restores the per-experiment defaults.
func SetSampleSeed(seed int64) { sampleSeedOverride.Store(seed) }

// SampleSeed resolves the seed a sampled draw should use: the process
// override when set, the experiment's default otherwise.
func SampleSeed(def int64) int64 {
	if s := sampleSeedOverride.Load(); s != 0 {
		return s
	}
	return def
}

// Config is the campaign configuration of the experiment harness:
// faultcov's flags as one value, installed with Configure.  The zero
// Config is what the experiments run under unconfigured: the compiled
// engine, no dropping, sim.DefaultChunk, and no partition, checkpoint
// or session report.
type Config struct {
	// Plan is the template of every experiment session.  Engine and
	// Chunk reach every session, Drop the comparison sessions
	// (E16 pins it off), and PartitionIndex, PartitionCount and
	// Checkpoint the streaming sessions only.  Checkpoint.Resume is an
	// offer: the first streaming session it validates against resumes
	// from it, and every other session runs fresh.  The other fields
	// are ignored: each session sets its own, and the worker count
	// comes from coverage.SetDefaultWorkers.
	Plan coverage.Plan
	// OnSession, when non-nil, receives every executed session and its
	// plan (faultcov -progress and -session); it must not mutate them.
	OnSession func(*coverage.Plan, *coverage.Session)
}

// configuration is one Configure call: the settings, the context every
// session runs under, and what the sessions did with them.
type configuration struct {
	Config
	//faultsim:ambient the harness's one stored context: faultcov installs its signal-cancelled context with Configure, and the context-less Experiment functions run every session under it
	ctx      context.Context
	offer    atomic.Pointer[checkpoint.State] // the resume offer, until a session takes it
	streamed atomic.Int64                     // streaming sessions run so far
}

// configured is the installed configuration; nil until Configure.
var configured atomic.Pointer[configuration]

// Configure installs cfg, under ctx, as the configuration of every
// later experiment session, and resets what ResumePending and
// StreamedSessions report.
func Configure(ctx context.Context, cfg Config) {
	c := &configuration{Config: cfg, ctx: ctx}
	if cfg.Plan.Checkpoint != nil {
		c.offer.Store(cfg.Plan.Checkpoint.Resume)
	}
	configured.Store(c)
}

// current returns the installed configuration, or a zero one.
func current() *configuration {
	if c := configured.Load(); c != nil {
		return c
	}
	return &configuration{}
}

// ResumePending reports whether the resume offer is still untaken:
// after a run, that no streaming session matched the checkpoint.
func ResumePending() bool { return current().offer.Load() != nil }

// StreamedSessions returns the number of streaming sessions run since
// Configure: the only sessions a partition or checkpoint reaches.
func StreamedSessions() int { return int(current().streamed.Load()) }

// run executes p under the configuration: the template's Engine and
// Chunk and, on a streaming session, its partition and
// checkpoint, with the resume offer attached if it validates against
// p.  Every session is reported to OnSession.
func (c *configuration) run(p coverage.Plan) *coverage.Session {
	tpl := &c.Plan
	p.Engine, p.Chunk = tpl.Engine, tpl.Chunk
	if p.Stream != nil {
		c.streamed.Add(1)
		p.PartitionIndex, p.PartitionCount = tpl.PartitionIndex, tpl.PartitionCount
		if tpl.Checkpoint != nil {
			cp := *tpl.Checkpoint
			cp.Resume = nil
			if offer := c.offer.Load(); offer != nil && p.ValidateResume(offer, cp.Seed) == nil && c.offer.CompareAndSwap(offer, nil) {
				cp.Resume = offer
			}
			p.Checkpoint = &cp
		}
	}
	var s *coverage.Session
	if c.ctx == nil {
		s = p.Run()
	} else {
		s = p.RunContext(c.ctx)
	}
	if c.OnSession != nil {
		c.OnSession(&p, s)
	}
	return s
}

// compare runs the runners as one comparison session over u, on the
// shared program cache and dropping as configured.
func compare(runners []coverage.Runner, u fault.Universe, mk coverage.MemoryFactory) []coverage.Result {
	c := current()
	return c.run(coverage.Plan{
		Runners: runners, Universe: u, Memory: mk,
		Drop: c.Plan.Drop, Cache: coverage.SharedProgramCache(),
	}).Results
}

// campaign runs one runner over u, without the program cache.
func campaign(r coverage.Runner, u fault.Universe, mk coverage.MemoryFactory) coverage.Result {
	return current().run(coverage.Plan{Runners: []coverage.Runner{r}, Universe: u, Memory: mk}).Results[0]
}

// campaignStream runs one runner over a streaming universe, on the
// shared program cache.
func campaignStream(r coverage.Runner, s *fault.Stream, mk coverage.MemoryFactory) coverage.Result {
	return current().run(coverage.Plan{
		Runners: []coverage.Runner{r}, Stream: s, Memory: mk, Cache: coverage.SharedProgramCache(),
	}).Results[0]
}

// ExperimentFig1a regenerates Figure 1a: the bit-oriented π-iteration
// state evolution (TDB) and the ring-closure check.
func ExperimentFig1a(n int) *report.Table {
	cfg := prt.PaperBOMConfig()
	mem := ram.NewBOM(n)
	res := prt.MustRunIteration(cfg, mem)
	t := report.New(
		fmt.Sprintf("Fig.1a — BOM π-iteration, g(x)=1+x+x^2, seed (1,1), n=%d", n),
		"cell", "value")
	show := n
	if show > 12 {
		show = 12
	}
	for i := 0; i < show; i++ {
		t.AddRow(i, mem.Read(i))
	}
	f := cfg.Gen.Field
	t.AddRowf("Init", prt.FormatState(f, cfg.Seed))
	t.AddRowf("Fin", prt.FormatState(f, res.Fin))
	t.AddRowf("Fin*", prt.FormatState(f, res.FinStar))
	t.AddRowf("ring closed", fmt.Sprintf("%v (period 3, (n-2) mod 3 = %d)", res.RingClosed, (n-2)%3))
	return t
}

// ExperimentFig1b regenerates Figure 1b: the word-oriented iteration
// over GF(2^4) with g(x)=1+2x+2x^2, p(z)=1+z+z^4 — the TDB
// 0,1,2,6,8,F,… and the period-255 pseudo-ring.
func ExperimentFig1b(n int) *report.Table {
	cfg := prt.PaperWOMConfig()
	f := cfg.Gen.Field
	mem := ram.NewWOM(n, 4)
	res := prt.MustRunIteration(cfg, mem)
	t := report.New(
		fmt.Sprintf("Fig.1b — WOM π-iteration, g(x)=1+2x+2x^2 over GF(2^4), p(z)=1+z+z^4, n=%d", n),
		"cell", "value(hex)")
	show := n
	if show > 16 {
		show = 16
	}
	for i := 0; i < show; i++ {
		t.AddRowf(fmt.Sprintf("%d", i), f.FormatElem(gf.Elem(mem.Read(i))))
	}
	w := lfsr.MustWord(cfg.Gen, cfg.Seed)
	t.AddRowf("period", fmt.Sprintf("%d", w.Period(0)))
	t.AddRowf("Init", prt.FormatState(f, cfg.Seed))
	t.AddRowf("Fin", prt.FormatState(f, res.Fin))
	t.AddRowf("Fin*", prt.FormatState(f, res.FinStar))
	t.AddRowf("ring closed", fmt.Sprintf("%v ((n-2) mod 255 = %d)", res.RingClosed, (n-2)%255))
	return t
}

// ExperimentFig2 regenerates the Fig. 2 / §4 comparison: dual-port
// cycles (2n) versus single-port operations (3n) across array sizes.
func ExperimentFig2(sizes []int) *report.Table {
	t := report.New("Fig.2 / §4 — dual-port PRT: 2n cycles vs 3n single-port ops",
		"n", "1P ops", "2P cycles", "ratio", "both pass")
	for _, n := range sizes {
		cfg := prt.PaperWOMConfig()
		cfgSig := cfg // plain signature iteration
		sp := ram.NewWOM(n, 4)
		spRes := prt.MustRunIteration(cfgSig, sp)
		dp := ram.NewDualPort(n, 4)
		dpRes, err := prt.RunDualPort(cfg, dp)
		if err != nil {
			panic(err)
		}
		t.AddRow(n, spRes.Ops, dpRes.Cycles,
			float64(spRes.Ops)/float64(dpRes.Cycles),
			!spRes.Detected && !dpRes.Detected)
	}
	return t
}

// ExperimentSingleCell regenerates the §3 single-cell claim (E4):
// coverage of SAF/TF/SOF/AF per iteration count, for BOM and WOM.
func ExperimentSingleCell(n int) *report.Table {
	t := report.New(
		fmt.Sprintf("§3 (E4) — single-cell fault coverage vs π-iterations, n=%d", n),
		"memory", "iters", "SAF", "TF", "SOF", "AF", "total")
	type geom struct {
		label string
		m     int
		gen   lfsr.GenPoly
		mk    coverage.MemoryFactory
	}
	geoms := []geom{
		{"BOM", 1, prt.PaperBOMConfig().Gen, func() ram.Memory { return ram.NewBOM(n) }},
		{"WOM m=4", 4, prt.PaperWOMConfig().Gen, func() ram.Memory { return ram.NewWOM(n, 4) }},
	}
	for _, g := range geoms {
		var faults []fault.Fault
		faults = append(faults, fault.SingleCellUniverse(n, g.m)...)
		faults = append(faults, fault.StuckOpenUniverse(n)...)
		faults = append(faults, fault.DecoderUniverse(n)...)
		u := fault.Universe{Name: "single-cell", Faults: faults}
		// One campaign session per geometry: the four truncations share
		// the universe, so the session layer can drop cross-test.
		runners := make([]coverage.Runner, 4)
		for it := 1; it <= 4; it++ {
			runners[it-1] = coverage.PRTRunner(prt.StandardScheme4(g.gen).Truncate(it))
		}
		for it, res := range compare(runners, u, g.mk) {
			t.AddRowf(g.label, fmt.Sprintf("%d", it+1),
				report.Percent(res.ByClass[fault.ClassSAF].Detected, res.ByClass[fault.ClassSAF].Total),
				report.Percent(res.ByClass[fault.ClassTF].Detected, res.ByClass[fault.ClassTF].Total),
				report.Percent(res.ByClass[fault.ClassSOF].Detected, res.ByClass[fault.ClassSOF].Total),
				report.Percent(res.ByClass[fault.ClassAF].Detected, res.ByClass[fault.ClassAF].Total),
				report.Percent(res.Detected, res.Total))
		}
	}
	return t
}

// ExperimentCoupling regenerates the §3 multi-cell claim (E5):
// coupling fault coverage versus iteration count and extended phase
// blocks.
func ExperimentCoupling(n int) *report.Table {
	t := report.New(
		fmt.Sprintf("§3 (E5) — coupling fault coverage vs iterations, WOM m=4, n=%d", n),
		"scheme", "iters", "CFin", "CFid", "CFst", "BF", "total")
	gen := prt.PaperWOMConfig().Gen
	pairs := fault.AdjacentPairs(n)
	pairs = append(pairs, fault.SamplePairs(n, 4, 20, SampleSeed(7))...)
	u := fault.Universe{Name: "coupling", Faults: fault.CouplingUniverse(pairs)}
	mk := func() ram.Memory { return ram.NewWOM(n, 4) }
	// All seven schemes ride one session over the shared universe.
	type row struct {
		name  string
		iters int
	}
	var rows []row
	var runners []coverage.Runner
	for it := 1; it <= 4; it++ {
		rows = append(rows, row{"PRT", it})
		runners = append(runners, coverage.PRTRunner(prt.StandardScheme4(gen).Truncate(it)))
	}
	for _, blocks := range []int{2, 3, 4} {
		rows = append(rows, row{fmt.Sprintf("PRT-x%d", blocks), 4 * blocks})
		runners = append(runners, coverage.PRTRunner(prt.ExtendedScheme(gen, blocks)))
	}
	for i, res := range compare(runners, u, mk) {
		t.AddRowf(rows[i].name, fmt.Sprintf("%d", rows[i].iters),
			report.Percent(res.ByClass[fault.ClassCFin].Detected, res.ByClass[fault.ClassCFin].Total),
			report.Percent(res.ByClass[fault.ClassCFid].Detected, res.ByClass[fault.ClassCFid].Total),
			report.Percent(res.ByClass[fault.ClassCFst].Detected, res.ByClass[fault.ClassCFst].Total),
			report.Percent(res.ByClass[fault.ClassBF].Detected, res.ByClass[fault.ClassBF].Total),
			report.Percent(res.Detected, res.Total))
	}
	return t
}

// ExperimentPRTvsMarch regenerates the op-count/coverage comparison
// (E6): the classical March algorithms against PRT schemes on the
// standard universe.
func ExperimentPRTvsMarch(n, m int) *report.Table {
	t := report.New(
		fmt.Sprintf("§3/§4 (E6) — PRT vs March: ops and coverage, n=%d m=%d", n, m),
		"algorithm", "ops/cell", "ops(clean)", "coverage", "SAF", "TF", "CF*", "AF")
	u := fault.StandardUniverse(n, m, 10, SampleSeed(5))
	mk := func() ram.Memory { return ram.NewWOM(n, m) }
	bgs := march.DataBackgrounds(m)

	runners := []coverage.Runner{
		coverage.MarchRunner(march.MATSPlus(), bgs),
		coverage.MarchRunner(march.MarchX(), bgs),
		coverage.MarchRunner(march.MarchY(), bgs),
		coverage.MarchRunner(march.MarchCMinus(), bgs),
		coverage.MarchRunner(march.MarchA(), bgs),
		coverage.MarchRunner(march.MarchB(), bgs),
	}
	gen := prt.PaperWOMConfig().Gen
	if m != 4 {
		f := gf.NewField(m)
		gen = lfsr.MustGenPoly(f, []gf.Elem{1, 2 % (f.Mask() + 1), 2 % (f.Mask() + 1)})
	}
	prtRunners := []coverage.Runner{
		coverage.PRTRunner(prt.StandardScheme3(gen).SignatureOnly()),
		coverage.PRTRunner(prt.StandardScheme3(gen)),
		coverage.PRTRunner(prt.StandardScheme4(gen)),
		coverage.PRTRunner(prt.ExtendedScheme(gen, 2)),
	}
	opsPerCell := map[string]int{}
	for _, r := range []march.Test{march.MATSPlus(), march.MarchX(), march.MarchY(), march.MarchCMinus(), march.MarchA(), march.MarchB()} {
		opsPerCell[r.Name] = r.OpsPerCell() * len(bgs)
	}
	opsPerCell["PRT-3/sig"] = prt.StandardScheme3(gen).SignatureOnly().OpsPerCell()
	opsPerCell["PRT-3"] = prt.StandardScheme3(gen).OpsPerCell()
	opsPerCell["PRT-4"] = prt.StandardScheme4(gen).OpsPerCell()
	opsPerCell["PRT-x2"] = prt.ExtendedScheme(gen, 2).OpsPerCell()

	for _, res := range compare(append(runners, prtRunners...), u, mk) {
		cfDet, cfTot := coverage.Sum(res.ByClass,
			fault.ClassCFin, fault.ClassCFid, fault.ClassCFst, fault.ClassBF, fault.ClassIWCF)
		t.AddRowf(res.Runner,
			fmt.Sprintf("%dn", opsPerCell[res.Runner]),
			fmt.Sprintf("%d", res.OpsCleanRun),
			report.Percent(res.Detected, res.Total),
			report.Percent(res.ByClass[fault.ClassSAF].Detected, res.ByClass[fault.ClassSAF].Total),
			report.Percent(res.ByClass[fault.ClassTF].Detected, res.ByClass[fault.ClassTF].Total),
			report.Percent(cfDet, cfTot),
			report.Percent(res.ByClass[fault.ClassAF].Detected, res.ByClass[fault.ClassAF].Total))
	}
	return t
}

// ExperimentBISTOverhead regenerates the §4 overhead claim (E7): the
// gate-equivalent budget relative to memory capacity across sizes,
// crossing the paper's 2^-20 bound.
func ExperimentBISTOverhead() *report.Table {
	t := report.New("§4 (E7) — BIST hardware overhead vs capacity (bound 2^-20)",
		"cells", "bits", "gate-eq", "ratio", "log2(ratio)", "<2^-20")
	gm := bist.DefaultGateModel()
	for _, logN := range []int{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30} {
		n := 1 << uint(logN)
		p := bist.Params{N: n, M: 4, Gen: lfsr.PaperGenPoly(), Ports: 1, Iterations: 3}
		b, err := bist.ForPRT(p)
		if err != nil {
			panic(err)
		}
		ratio := bist.OverheadRatio(b, n, 4, gm)
		t.AddRowf(
			fmt.Sprintf("2^%d", logN),
			fmt.Sprintf("2^%d", logN+2),
			fmt.Sprintf("%.0f", b.GateEquivalents(gm)),
			fmt.Sprintf("%.2e", ratio),
			fmt.Sprintf("%.1f", math.Log2(ratio)),
			fmt.Sprintf("%v", ratio < math.Pow(2, -20)))
	}
	return t
}

// ExperimentMarkov regenerates the §3 resolution analysis (E8): the
// Markov-chain detection probability of the π-test per iteration
// count for several word widths.
func ExperimentMarkov() *report.Table {
	t := report.New("§3 (E8) — Markov-chain π-test resolution (k=2)",
		"m", "alias 2^-(mk)", "P(det) it=1", "it=2", "it=3", "it=5", "iters→99.9%")
	for _, m := range []int{1, 4, 8, 16} {
		p := markov.PRTModel{M: m, K: 2, PExcite: 1}
		row := []string{fmt.Sprintf("%d", m), fmt.Sprintf("%.2e", p.AliasProbability())}
		for _, it := range []int{1, 2, 3, 5} {
			d, err := p.DetectionProbability(it)
			if err != nil {
				panic(err)
			}
			row = append(row, fmt.Sprintf("%.6f", d))
		}
		it, err := p.IterationsFor(0.999)
		if err != nil {
			panic(err)
		}
		row = append(row, fmt.Sprintf("%d", it))
		t.AddRowf(row...)
	}
	return t
}

// ExperimentIntraWord regenerates the §2 intra-word comparison (E9):
// parallel versus random bit-lane trajectories, plus the word-automaton
// scheme, on the intra-word coupling universe.
func ExperimentIntraWord(n, m int) *report.Table {
	t := report.New(
		fmt.Sprintf("§2 (E9) — intra-word faults: parallel vs random lanes, n=%d m=%d", n, m),
		"scheme", "iters", "IWCF coverage")
	u := fault.Universe{Name: "intra-word", Faults: fault.IntraWordUniverse(n, m)}
	mk := func() ram.Memory { return ram.NewWOM(n, m) }
	// Eleven runners, one universe, one session.
	var runners []coverage.Runner
	var iterLabels []string
	for _, mode := range []prt.LaneMode{prt.ParallelLanes, prt.RandomLanes} {
		for _, iters := range []int{1, 3, 6, 8} {
			runners = append(runners, coverage.BitSlicedRunner(
				fmt.Sprintf("bit-sliced/%v", mode),
				prt.BitSlicedScheme(m, mode, iters)))
			iterLabels = append(iterLabels, fmt.Sprintf("%d", iters))
		}
	}
	gen := prt.PaperWOMConfig().Gen
	for _, blocks := range []int{1, 2, 4} {
		runners = append(runners, coverage.PRTRunner(prt.ExtendedScheme(gen, blocks)))
		iterLabels = append(iterLabels, fmt.Sprintf("%d", 4*blocks))
	}
	for i, res := range compare(runners, u, mk) {
		t.AddRowf(res.Runner, iterLabels[i],
			report.Percent(res.Detected, res.Total))
	}
	return t
}

// ExperimentQualityFactors regenerates the §3 three-factor study
// (E10): polynomial structure, initial values and trajectory, varied
// one at a time against the signature-only baseline.
func ExperimentQualityFactors(n int) *report.Table {
	t := report.New(
		fmt.Sprintf("§3 (E10) — quality factors of the π-test (signature-only, 3 iterations), BOM n=%d", n),
		"factor", "setting", "coverage")
	u := fault.StandardUniverse(n, 1, 10, SampleSeed(3))
	mk := func() ram.Memory { return ram.NewBOM(n) }
	f1 := gf.NewField(1)

	// The factor grid shares one universe: collect every variant and
	// run them as one session (names collide across settings — "PRT-3/
	// sig" appears nine times — which is exactly why the program cache
	// keys on configuration, not name).
	type variant struct{ factor, setting string }
	var labels []variant
	var runners []coverage.Runner
	run := func(factor, setting string, s prt.Scheme) {
		labels = append(labels, variant{factor, setting})
		runners = append(runners, coverage.PRTRunner(s.SignatureOnly()))
	}
	// Factor 1: polynomial structure.  (Ordered slices, not maps — the
	// table row order must be deterministic across runs.)
	gens := []struct {
		name string
		g    lfsr.GenPoly
	}{
		{"g=1+x+x^2 (period 3)", lfsr.MustGenPoly(f1, []gf.Elem{1, 1, 1})},
		{"g=1+x+x^3 (period 7)", lfsr.MustGenPoly(f1, []gf.Elem{1, 1, 0, 1})},
		{"g=1+x+x^4 (period 15)", lfsr.MustGenPoly(f1, []gf.Elem{1, 1, 0, 0, 1})},
	}
	for _, e := range gens {
		run("polynomial", e.name, prt.StandardScheme3(e.g))
	}
	// Factor 2: initial values (seed phases of the same automaton).
	g := lfsr.MustGenPoly(f1, []gf.Elem{1, 1, 1})
	seeds := []struct {
		name string
		seed []gf.Elem
	}{
		{"seed (1,0)", []gf.Elem{1, 0}},
		{"seed (1,1)", []gf.Elem{1, 1}},
		{"seed (0,1)", []gf.Elem{0, 1}},
	}
	for _, e := range seeds {
		s := prt.StandardScheme3(g)
		it0 := s.Iters[0]
		it0.Seed = e.seed
		s.Iters[0] = it0
		run("initial values", e.name, s)
	}
	// Factor 3: trajectory of the first iteration.
	for _, e := range []struct {
		name string
		tr   prt.Trajectory
	}{
		{"ascending", prt.Ascending},
		{"descending", prt.Descending},
		{"random", prt.Random},
	} {
		s := prt.StandardScheme3(g)
		it0 := s.Iters[0]
		it0.Trajectory = e.tr
		it0.PermSeed = 11
		s.Iters[0] = it0
		run("trajectory", e.name, s)
	}
	for i, res := range compare(runners, u, mk) {
		t.AddRowf(labels[i].factor, labels[i].setting, report.Percent(res.Detected, res.Total))
	}
	return t
}

// ExperimentMultiplierSynthesis regenerates the §2 constant-multiplier
// claim (E11): XOR gate counts before/after CSE for every constant of
// GF(2^4), plus the GF(2^8) aggregate.
func ExperimentMultiplierSynthesis() *report.Table {
	t := report.New("§2 (E11) — constant multiplier synthesis, GF(2^4) mod 1+z+z^4",
		"constant", "naive XORs", "CSE XORs", "saved", "depth")
	f4 := gf.NewField(4)
	for _, c := range xorsynth.SurveyField(f4) {
		t.AddRowf(
			f4.FormatElem(c.Constant),
			fmt.Sprintf("%d", c.NaiveGates),
			fmt.Sprintf("%d", c.CSEGates),
			fmt.Sprintf("%d", c.Saved()),
			fmt.Sprintf("%d", c.CSEDepth))
	}
	f8 := gf.NewField(8)
	naive, cse := 0, 0
	for _, c := range xorsynth.SurveyField(f8) {
		naive += c.NaiveGates
		cse += c.CSEGates
	}
	t.AddRowf("GF(2^8) total", fmt.Sprintf("%d", naive), fmt.Sprintf("%d", cse),
		fmt.Sprintf("%d", naive-cse), "-")
	return t
}

// ExperimentNPSF is extension experiment E12: neighbourhood pattern
// sensitive fault coverage of PRT versus the March baselines on a
// bit-oriented array with the given grid width.  Neither family
// targets NPSF explicitly; the varied pseudo-ring TDB activates many
// neighbourhood patterns as a side effect.
func ExperimentNPSF(n, width int) *report.Table {
	t := report.New(
		fmt.Sprintf("E12 (extension) — NPSF coverage, BOM n=%d grid width %d", n, width),
		"algorithm", "SNPSF", "ANPSF", "total")
	snpsf := fault.Universe{Name: "snpsf", Faults: fault.NPSFUniverse(n, width, 1)}
	anpsf := fault.Universe{Name: "anpsf", Faults: fault.ANPSFUniverse(n, width, 2)}
	mk := func() ram.Memory { return ram.NewBOM(n) }
	gen := prt.PaperBOMConfig().Gen
	runners := []coverage.Runner{
		coverage.MarchRunner(march.MarchCMinus(), nil),
		coverage.MarchRunner(march.MarchSS(), nil),
		coverage.PRTRunner(prt.StandardScheme3(gen)),
		coverage.PRTRunner(prt.ExtendedScheme(gen, 3)),
	}
	// One session per universe; rows zip the two.
	resS := compare(runners, snpsf, mk)
	resA := compare(runners, anpsf, mk)
	for i := range runners {
		rs, ra := resS[i], resA[i]
		t.AddRowf(rs.Runner,
			report.Percent(rs.Detected, rs.Total),
			report.Percent(ra.Detected, ra.Total),
			report.Percent(rs.Detected+ra.Detected, rs.Total+ra.Total))
	}
	return t
}

// ExperimentRetention is extension experiment E13: data-retention
// (DRF) coverage as a function of the decay delay relative to the test
// length.  A fault whose retention time exceeds the whole test escapes
// any algorithm without an explicit pause, reproducing why production
// flows insert delay elements.
func ExperimentRetention(n int) *report.Table {
	t := report.New(
		fmt.Sprintf("E13 (extension) — data retention faults vs decay delay, WOM m=4 n=%d", n),
		"decay delay (ops)", "PRT-3", "March C-")
	mk := func() ram.Memory { return ram.NewWOM(n, 4) }
	gen := prt.PaperWOMConfig().Gen
	prtR := coverage.PRTRunner(prt.StandardScheme3(gen))
	marchR := coverage.MarchRunner(march.MarchCMinus(), march.DataBackgrounds(4))
	for _, delay := range []uint64{64, 256, 1024, 4096, 1 << 20} {
		u := fault.Universe{
			Name:   "drf",
			Faults: fault.RetentionUniverse(n, 4, delay),
		}
		rs := compare([]coverage.Runner{prtR, marchR}, u, mk)
		t.AddRowf(fmt.Sprintf("%d", delay),
			report.Percent(rs[0].Detected, rs[0].Total),
			report.Percent(rs[1].Detected, rs[1].Total))
	}
	return t
}

// ExperimentRingMode is ablation experiment E14: plain (Fin = last k
// cells) versus wrap-around ring iterations across array sizes,
// reporting closure and single-iteration coverage on the single-cell
// universe.  The ring costs k extra steps and changes the closure
// condition from (n-k) ≡ 0 to n ≡ 0 (mod period).
func ExperimentRingMode(sizes []int) *report.Table {
	t := report.New("E14 (ablation) — plain vs ring iterations, WOM m=4",
		"n", "mode", "ring closes", "ops", "1-iter coverage")
	for _, n := range sizes {
		u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 4)}
		mk := func() ram.Memory { return ram.NewWOM(n, 4) }
		for _, ring := range []bool{false, true} {
			cfg := prt.PaperWOMConfig()
			cfg.Ring = ring
			mode := "plain"
			if ring {
				mode = "ring"
			}
			s := prt.Scheme{Name: "PRT-1/" + mode, Iters: []prt.Config{cfg}}
			res := campaign(coverage.PRTRunner(s), u, mk)
			t.AddRowf(fmt.Sprintf("%d", n), mode,
				fmt.Sprintf("%v", prt.RingCloses(cfg, n)),
				fmt.Sprintf("%d", res.OpsCleanRun),
				report.Percent(res.Detected, res.Total))
		}
	}
	return t
}

// ExperimentMISR is ablation experiment E15: the exact per-read
// comparator of the verify pass versus MISR signature compression of
// the same read-back stream, on the single-cell universe.  MISR costs
// one m-bit register instead of n comparisons; the measured coverage
// difference quantifies the aliasing the markov model predicts
// (≈2^-m for random multi-error patterns; single-cell faults never
// produce a lone-error alias, so the gap is small).  Both compressed
// rows run on the compiled replay engine: their signature comparisons
// are recorded as observer annotations, so aliasing replays exactly.
func ExperimentMISR(n int) *report.Table {
	t := report.New(
		fmt.Sprintf("E15 (ablation) — exact verify vs MISR-compressed verify, WOM m=4 n=%d", n),
		"checker", "coverage (single-cell universe)")
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 4)}
	mk := func() ram.Memory { return ram.NewWOM(n, 4) }

	rs := compare([]coverage.Runner{
		coverage.PRTRunner(prt.PaperWOMScheme3()),
		misrCompressedRunner{n: n},
		coverage.BISTRunner(prt.PaperWOMScheme3(), 0),
	}, u, mk)
	t.AddRowf("exact comparator", report.Percent(rs[0].Detected, rs[0].Total))
	t.AddRowf("MISR-compressed", report.Percent(rs[1].Detected, rs[1].Total))
	t.AddRowf("BIST controller (compressed)", report.Percent(rs[2].Detected, rs[2].Total))
	return t
}

// misrCompressedRunner runs the 3-iteration scheme with signature-only
// detection plus a MISR compression of each iteration's read-back
// stream compared against the compressed prediction.
type misrCompressedRunner struct{ n int }

func (misrCompressedRunner) Name() string { return "PRT-3/misr" }

// ReplaySafe implements coverage.ReplaySafe: the scheme's stimuli are
// annotated affine recurrences, its Fin checks are checked reads, and
// the MISR read-back is annotated as a signature observer, so the
// replay engines reproduce the compressed detection — aliasing
// included — exactly.
func (misrCompressedRunner) ReplaySafe() {}

// TraceKey implements coverage.TraceKeyer: n is the runner's entire
// configuration.
func (r misrCompressedRunner) TraceKey() string {
	return fmt.Sprintf("misr-compressed:n=%d", r.n)
}

func (r misrCompressedRunner) Run(mem ram.Memory) (bool, uint64) {
	gen := prt.PaperWOMConfig().Gen
	f := gen.Field
	s := prt.PaperWOMScheme3().SignatureOnly()
	res, err := s.Run(mem)
	if err != nil {
		panic(err)
	}
	detected := res.Detected
	ops := res.Ops
	// Compress a final read-back of the last iteration's TDB.  The
	// last scheme iteration is the mirror of iteration 1, so the
	// expected contents equal iteration 1's TDB by construction.
	cfg := s.Iters[0]
	want := prt.ExpectedSequence(cfg, mem.Size())
	sig, err := bist.NewMISR(f, 0)
	if err != nil {
		panic(err)
	}
	step, tap := sig.FoldMatrices()
	const obs = 0
	for a := 0; a < mem.Size(); a++ {
		v := gf.Elem(mem.Read(a))
		ram.AnnotateFold(mem, obs, step, tap)
		ops++
		sig.Feed(v)
	}
	ram.AnnotateObserved(mem, obs)
	sigWant, err := bist.Predict(f, 0, want)
	if err != nil {
		panic(err)
	}
	if sig.Signature() != sigWant {
		detected = true
	}
	return detected, ops
}

// ExperimentMISRAliasing is scaled experiment E16: observed signature
// aliasing versus the markov model's 2^-w prediction, sweeping memory
// size × signature width.  A bit-oriented π-test walk (the paper's
// g = 1+x+x² automaton) plus a full read-back produce one fixed read
// stream per fault; the stream is observed two ways with identical
// excitation: an exact per-read comparator (the detection upper
// bound), and the §4 BIST observer — a w-bit serial signature register
// over GF(2^w) compressing every read, compared once against the
// model's prediction.  Errors that propagate through the walking
// automaton contribute many corrupted reads, so multi-error patterns
// are common, and the fraction of exact-detected faults the register
// misses is the observed aliasing, which the markov model puts at 2^-w
// for a random surviving error (single-read errors never alias, which
// is why the observed rate sits below the bound).  Every campaign here
// rides the compiled observer replay.
func ExperimentMISRAliasing(sizes, widths []int) *report.Table {
	t := report.New("E16 (scaled) — BIST signature aliasing: observed escape rate vs the 2^-w model",
		"n", "w", "exact", "sisr", "detected(exact)", "escaped", "observed", "2^-w")
	for _, n := range sizes {
		pairs := fault.AdjacentPairs(n)
		pairs = append(pairs, fault.SamplePairs(n, 1, 48, SampleSeed(5))...)
		u := fault.Universe{Name: "coupling", Faults: fault.CouplingUniverse(pairs)}
		mk := func() ram.Memory { return ram.NewBOM(n) }
		// One session per size: the exact comparator and every register
		// width observe the same universe.  Dropping is pinned off (not
		// the configured Drop): the escape rate below subtracts
		// sisr.Detected from exact.Detected, which is only meaningful
		// when every runner sees the full universe unconditionally.
		runners := []coverage.Runner{sisrRunner{exact: true}}
		for _, w := range widths {
			runners = append(runners, sisrRunner{w: w})
		}
		rs := current().run(coverage.Plan{
			Runners: runners, Universe: u, Memory: mk, Cache: coverage.SharedProgramCache(),
		}).Results
		exact := rs[0]
		for i, w := range widths {
			sisr := rs[i+1]
			escaped := exact.Detected - sisr.Detected
			observed := 0.0
			if exact.Detected > 0 {
				observed = float64(escaped) / float64(exact.Detected)
			}
			model := markov.PRTModel{M: w, K: 1, PExcite: 1}
			t.AddRowf(fmt.Sprintf("%d", n), fmt.Sprintf("%d", w),
				report.Percent(exact.Detected, exact.Total),
				report.Percent(sisr.Detected, sisr.Total),
				fmt.Sprintf("%d", exact.Detected),
				fmt.Sprintf("%d", escaped),
				fmt.Sprintf("%.4f", observed),
				fmt.Sprintf("%.4f", model.AliasProbability()))
		}
	}
	return t
}

// sisrRunner is the E16 workload: one bit-oriented π-walk (seed,
// recurrence writes reading their operands back from the memory, then
// a full read-back), with every read observed either exactly or
// through a w-bit serial signature register.  Both modes execute the
// identical operation schedule, so they excite faults identically and
// differ only in the observer.  It is replay-safe: recurrence writes
// are annotated affine maps, exact reads are checked reads, and the
// compressed stream is a signature observer with one compare point.
type sisrRunner struct {
	exact bool
	w     int // signature width (compressed mode)
}

func (r sisrRunner) Name() string {
	if r.exact {
		return "π-walk/exact"
	}
	return fmt.Sprintf("π-walk/sisr-w%d", r.w)
}

// ReplaySafe implements coverage.ReplaySafe.
func (sisrRunner) ReplaySafe() {}

// TraceKey implements coverage.TraceKeyer: the mode and register width
// are the runner's entire configuration.
func (r sisrRunner) TraceKey() string {
	return fmt.Sprintf("sisr:w=%d,exact=%t", r.w, r.exact)
}

func (r sisrRunner) Run(mem ram.Memory) (bool, uint64) {
	cfg := prt.PaperBOMConfig()
	f := cfg.Gen.Field
	taps := cfg.Gen.Taps()
	k := cfg.Gen.K()
	n := mem.Size()
	// Ascending trajectory: address == trajectory position, so the
	// clean TDB indexed by address is the automaton sequence itself.
	want := prt.ExpectedSequence(cfg, n)

	var detected bool
	var ops uint64
	var sig, pred *bist.MISR
	var step, tap []uint32
	const obs = 0
	if !r.exact {
		fw := gf.NewField(r.w)
		var err error
		if sig, err = bist.NewMISR(fw, 0); err != nil {
			panic(err)
		}
		if pred, err = bist.NewMISR(fw, 0); err != nil {
			panic(err)
		}
		step, _ = sig.FoldMatrices()
		tap = make([]uint32, r.w)
		tap[0] = 1 // the single read bit feeds accumulator bit 0
	}
	observe := func(v, wantV gf.Elem) {
		if r.exact {
			ram.AnnotateChecked(mem)
			if v != wantV {
				detected = true
			}
			return
		}
		ram.AnnotateFold(mem, obs, step, tap)
		sig.Feed(v & 1)
		pred.Feed(wantV & 1)
	}

	// Replay annotation of the recurrence writes: read order is
	// c_{i-1} then c_{i-2}, so tap a_j applies to the read k-j+1 back.
	var linBack []int
	var linRows [][]uint32
	if _, tracing := mem.(ram.TraceAnnotator); tracing {
		linBack = make([]int, k)
		linRows = make([][]uint32, k)
		for j := 1; j <= k; j++ {
			linBack[j-1] = k - j + 1
			linRows[j-1] = f.ConstMulMatrix(taps[j-1]).Rows
		}
	}

	for i := 0; i < k; i++ {
		mem.Write(i, ram.Word(cfg.Seed[i]))
		ops++
	}
	for i := k; i < n; i++ {
		next := cfg.Offset
		for j := 1; j <= k; j++ {
			v := gf.Elem(mem.Read(i - j))
			ops++
			observe(v, want[i-j])
			next = f.Add(next, f.Mul(taps[j-1], v))
		}
		mem.Write(i, ram.Word(next))
		if linBack != nil {
			ram.AnnotateLinear(mem, linBack, linRows, ram.Word(cfg.Offset))
		}
		ops++
	}
	for a := 0; a < n; a++ {
		v := gf.Elem(mem.Read(a))
		ops++
		observe(v, want[a])
	}
	if !r.exact {
		ram.AnnotateObserved(mem, obs)
		if sig.Signature() != pred.Signature() {
			detected = true
		}
	}
	return detected, ops
}

// ExperimentExhaustiveCoupling is streaming experiment E17: exact
// escape counts over the exhaustive two-cell coupling universe versus
// the sampled-pair estimates the harness (like the paper's evaluation)
// otherwise relies on.  For each memory size the full population —
// every ordered aggressor→victim cell pair expanded into the 12-fault
// sub-type set, n·(n-1)·12 instances — streams through the campaign
// engine in bounded chunks (fault.FullCouplingSource), so the exact
// escape count is computed without ever materializing the universe;
// the sampled row replays the classical methodology (uniform random
// pairs, escape rate extrapolated to the population) against the same
// algorithm.  The difference between the extrapolated and the exact
// count is the sampling error the streaming path eliminates.  At the
// -exhaustive-cf sizes the exact column covers universes of millions
// of instances — memory-infeasible for the materialized path, pure
// simulation time for the streaming one.
func ExperimentExhaustiveCoupling(sizes []int, samples int) *report.Table {
	t := report.New(
		"E17 (streaming) — exhaustive CF escape counts vs sampled estimates, BOM",
		"n", "CF universe", "algorithm", "sampled pairs", "sampled escape rate", "est. escapes", "exact escapes", "est. error")
	gen := prt.PaperBOMConfig().Gen
	runners := []coverage.Runner{
		coverage.PRTRunner(prt.StandardScheme3(gen)),
		coverage.MarchRunner(march.MarchCMinus(), nil),
	}
	for _, n := range sizes {
		mk := func() ram.Memory { return ram.NewBOM(n) }
		full := fault.FullCouplingSource(n)
		count, _ := full.Count()
		sampled := fault.Universe{
			Name:   "cf-sampled",
			Faults: fault.CouplingUniverse(fault.SamplePairs(n, 1, samples, SampleSeed(11))),
		}
		for _, r := range runners {
			sres := campaign(r, sampled, mk)
			rate := 1 - sres.Coverage()
			est := rate * float64(count)
			xres := campaignStream(r, &fault.Stream{Name: "cf-exhaustive", Source: full}, mk)
			exact := xres.Total - xres.Detected
			errCol := "n/a"
			if exact > 0 {
				errCol = fmt.Sprintf("%+.1f%%", 100*(est-float64(exact))/float64(exact))
			}
			t.AddRowf(
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", count),
				r.Name(),
				fmt.Sprintf("%d", samples),
				fmt.Sprintf("%.4f", rate),
				fmt.Sprintf("%.0f", est),
				fmt.Sprintf("%d", exact),
				errCol)
		}
	}
	return t
}

// AllExperiments returns every experiment table with default
// parameters — the full regeneration pass used by cmd/faultcov and the
// benches.
func AllExperiments() []*report.Table {
	return []*report.Table{
		ExperimentFig1a(16),
		ExperimentFig1b(257),
		ExperimentFig2([]int{64, 256, 1024}),
		ExperimentSingleCell(48),
		ExperimentCoupling(48),
		ExperimentPRTvsMarch(48, 4),
		ExperimentBISTOverhead(),
		ExperimentMarkov(),
		ExperimentIntraWord(32, 4),
		ExperimentQualityFactors(48),
		ExperimentMultiplierSynthesis(),
		ExperimentNPSF(64, 8),
		ExperimentRetention(48),
		ExperimentRingMode([]int{64, 255, 257}),
		ExperimentMISR(64),
		ExperimentMISRAliasing([]int{64, 256}, []int{1, 2, 4, 8, 16}),
		ExperimentExhaustiveCoupling([]int{48, 96}, 64),
	}
}
