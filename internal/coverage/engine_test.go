package coverage

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
)

// The engine-equivalence property: for every replay-safe runner and
// every batchable fault universe, the bit-parallel and compiled
// engines — the latter collapsing each chunk — must produce a Result
// byte-identical to the per-fault oracle: same totals, same per-class
// detected counts, same clean-run metadata.  Stats is diagnostic
// metadata outside the contract and is zeroed before comparing.

func assertEngineEquivalence(t *testing.T, r Runner, u fault.Universe, mk MemoryFactory) {
	t.Helper()
	oracle := CampaignEngine(r, u, mk, 4, EngineOracle)
	oracle.Stats = nil
	for _, engine := range []Engine{EngineBitParallel, EngineCompiled} {
		got := CampaignEngine(r, u, mk, 4, engine)
		got.Stats = nil
		if !reflect.DeepEqual(oracle, got) {
			t.Errorf("%s on %s: engines disagree\noracle: %+v\n%s: %+v",
				r.Name(), u.Name, oracle, engine, got)
			for _, c := range oracle.Classes() {
				if oracle.ByClass[c] != got.ByClass[c] {
					t.Errorf("  class %s: oracle %+v %s %+v", c, oracle.ByClass[c], engine, got.ByClass[c])
				}
			}
			perFaultDiff(t, r, u, mk)
		}
	}
}

// perFaultDiff pinpoints individual faults the engines disagree on —
// diagnostic detail for when the aggregate property fails.
func perFaultDiff(t *testing.T, r Runner, u fault.Universe, mk MemoryFactory) {
	t.Helper()
	for _, f := range u.Faults {
		single := fault.Universe{Name: "single", Faults: []fault.Fault{f}}
		o := CampaignEngine(r, single, mk, 1, EngineOracle)
		for _, engine := range []Engine{EngineBitParallel, EngineCompiled} {
			b := CampaignEngine(r, single, mk, 1, engine)
			if o.Detected != b.Detected {
				t.Errorf("  fault %s: oracle detected=%v %s detected=%v", f, o.Detected == 1, engine, b.Detected == 1)
			}
		}
	}
}

func womUniverses(n, m int) []fault.Universe {
	return []fault.Universe{
		{Name: "single-cell", Faults: fault.SingleCellUniverse(n, m)},
		{Name: "stuck-open", Faults: fault.StuckOpenUniverse(n)},
		{Name: "retention", Faults: fault.RetentionUniverse(n, m, 16)},
		{Name: "decoder", Faults: fault.DecoderUniverse(n)},
		{Name: "coupling", Faults: fault.CouplingUniverse(
			append(fault.AdjacentPairs(n), fault.SamplePairs(n, m, 24, 7)...))},
		fault.StandardUniverse(n, m, 12, 42),
	}
}

// equivalenceSizes shrinks the universe sweep under -short (the -race
// CI job runs these packages with shortened universes).
func equivalenceSizes(sizes []int, t *testing.T) []int {
	t.Helper()
	if testing.Short() {
		return sizes[:1]
	}
	return sizes
}

func TestEngineEquivalenceMarch(t *testing.T) {
	t.Parallel()
	for _, n := range equivalenceSizes([]int{16, 33, 48}, t) {
		for _, u := range womUniverses(n, 4) {
			r := MarchRunner(march.MarchCMinus(), march.DataBackgrounds(4))
			assertEngineEquivalence(t, r, u, womFactory(n, 4))
		}
		// Bit-oriented memories with a different March algorithm.
		u := fault.Universe{Name: "bom-single", Faults: fault.SingleCellUniverse(n, 1)}
		assertEngineEquivalence(t, MarchRunner(march.MarchB(), nil), u, bomFactory(n))
	}
}

func TestEngineEquivalencePRT(t *testing.T) {
	t.Parallel()
	gen := prt.PaperWOMConfig().Gen
	ringCfg := prt.PaperWOMConfig()
	ringCfg.Ring = true
	ringCfg.Verify = true
	for _, n := range equivalenceSizes([]int{17, 33, 48}, t) {
		for _, s := range []prt.Scheme{
			prt.StandardScheme3(gen),
			prt.StandardScheme3(gen).SignatureOnly(),
			prt.ExtendedScheme(gen, 2),
			{Name: "PRT-ring", Iters: []prt.Config{ringCfg}},
		} {
			for _, u := range womUniverses(n, 4) {
				assertEngineEquivalence(t, PRTRunner(s), u, womFactory(n, 4))
			}
		}
	}
}

func TestEngineEquivalenceBitSlicedLaneModes(t *testing.T) {
	t.Parallel()
	const n, m = 32, 4
	for _, mode := range []prt.LaneMode{prt.ParallelLanes, prt.RandomLanes} {
		r := BitSlicedRunner(fmt.Sprintf("lanes/%s", mode), prt.BitSlicedScheme3(m, mode))
		for _, u := range []fault.Universe{
			{Name: "single-cell", Faults: fault.SingleCellUniverse(n, m)},
			{Name: "intra-word", Faults: fault.IntraWordUniverse(n, m)},
			{Name: "coupling", Faults: fault.CouplingUniverse(fault.AdjacentPairs(n))},
		} {
			assertEngineEquivalence(t, r, u, womFactory(n, m))
		}
	}
}

func TestEngineEquivalenceNPSF(t *testing.T) {
	t.Parallel()
	const n, width = 36, 6
	u := fault.Universe{Name: "npsf", Faults: append(
		fault.NPSFUniverse(n, width, 3), fault.ANPSFUniverse(n, width, 5)...)}
	mk := bomFactory(n)
	gen := prt.PaperBOMConfig().Gen
	assertEngineEquivalence(t, MarchRunner(march.MarchSS(), nil), u, mk)
	assertEngineEquivalence(t, PRTRunner(prt.StandardScheme3(gen)), u, mk)
}

// TestEngineFallbacks: non-replay-safe runners and non-batchable
// faults must silently take the oracle path with identical results.
func TestEngineFallbacks(t *testing.T) {
	t.Parallel()
	const n = 16
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	// An anonymous runner without the ReplaySafe marker.
	r := opaqueRunner{inner: MarchRunner(march.MATSPlus(), nil)}
	assertEngineEquivalence(t, r, u, bomFactory(n))
	// A universe holding one fault without batch injection: the replay
	// engines must fall back for the whole universe instead of failing.
	mixed := fault.Universe{Name: "mixed", Faults: append([]fault.Fault(nil), u.Faults...)}
	mixed.Faults[5] = opaqueFault{mixed.Faults[5]}
	m := MarchRunner(march.MATSPlus(), nil)
	assertEngineEquivalence(t, m, mixed, bomFactory(n))
	if st := CampaignEngine(m, mixed, bomFactory(n), 4, EngineCompiled).Stats; st.Engine != EngineOracle {
		t.Errorf("non-batchable universe ran on %v, want the oracle fallback", st.Engine)
	}
}

// opaqueFault hides the wrapped fault's batch-injection capability.
type opaqueFault struct{ fault.Fault }

type opaqueRunner struct{ inner Runner }

func (o opaqueRunner) Name() string                    { return o.inner.Name() + "/opaque" }
func (o opaqueRunner) Run(m ram.Memory) (bool, uint64) { return o.inner.Run(m) }
