package coverage

import (
	"testing"

	"repro/internal/bist"
	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/prt"
	"repro/internal/ram"
)

// These tests pin down the signature-observer replay path: MISR/BIST
// detection must run on the compiled engine with exact aliasing
// semantics — byte-identical to the oracle even for multi-error
// patterns that cancel in the register, which the checked-read
// over-approximation would miscount as detected.

// pairFault composes two batchable faults into one injected defect
// (both on the same machine lane), the shape needed to build error
// patterns that alias in a signature register.
type pairFault struct{ a, b fault.BatchInjector }

func (p pairFault) Class() fault.Class { return p.a.Class() }

func (p pairFault) String() string { return p.a.String() + "+" + p.b.String() }

func (p pairFault) Inject(m ram.Memory) ram.Memory { return p.b.Inject(p.a.Inject(m)) }

func (p pairFault) BatchInject(reg fault.HookRegistry, lane int, pool *fault.Pool) {
	p.a.BatchInject(reg, lane, pool)
	p.b.BatchInject(reg, lane, pool)
}

// misrReadbackRunner writes an all-ones background and detects purely
// by comparing a w-bit SISR compression of the read-back against the
// prediction.  checked deliberately mis-annotates the folded reads as
// checked reads instead — the over-approximation whose wrongness the
// cancellation test demonstrates.
type misrReadbackRunner struct {
	w       int
	checked bool
}

func (r misrReadbackRunner) Name() string { return "misr-readback" }

// ReplaySafe implements ReplaySafe.
func (misrReadbackRunner) ReplaySafe() {}

func (r misrReadbackRunner) Run(mem ram.Memory) (bool, uint64) {
	f := gf.NewField(r.w)
	sig, err := bist.NewMISR(f, 0)
	if err != nil {
		panic(err)
	}
	pred, err := bist.NewMISR(f, 0)
	if err != nil {
		panic(err)
	}
	step, _ := sig.FoldMatrices()
	tap := make([]uint32, r.w)
	tap[0] = 1
	var ops uint64
	n := mem.Size()
	for a := 0; a < n; a++ {
		mem.Write(a, 1)
		ops++
	}
	for a := 0; a < n; a++ {
		v := gf.Elem(mem.Read(a))
		if r.checked {
			ram.AnnotateChecked(mem)
		} else {
			ram.AnnotateFold(mem, 0, step, tap)
		}
		ops++
		sig.Feed(v & 1)
		pred.Feed(1)
	}
	if !r.checked {
		ram.AnnotateObserved(mem, 0)
	}
	return sig.Signature() != pred.Signature(), ops
}

// TestObserverReplayReproducesMISRCancellation is the aliasing
// exactness regression: a double stuck-at whose two read-back errors
// sit ord(α) = 2^w-1 cells apart contributes α^(j-i) = 1 times the
// same error twice, cancelling in the register — the oracle reports it
// undetected and the observer replay must agree, with collapsing on
// and off, while also keeping the SA0/SA1 split that a folded (but
// unchecked) bit demands of the collapser.
func TestObserverReplayReproducesMISRCancellation(t *testing.T) {
	t.Parallel()
	const n, w = 8, 2 // GF(2^2): ord(α) = 3
	u := fault.Universe{Name: "alias", Faults: []fault.Fault{
		// Errors 3 apart: cancels, undetected.
		pairFault{fault.SAF{Cell: 2, Value: 0}, fault.SAF{Cell: 5, Value: 0}},
		// Errors 2 apart: α² ≠ 1, detected.
		pairFault{fault.SAF{Cell: 2, Value: 0}, fault.SAF{Cell: 4, Value: 0}},
		// Single error: never aliases, detected.
		fault.SAF{Cell: 3, Value: 0},
		// SA1 on the all-ones background is invisible — and must not be
		// collapsed onto SA0 just because no read of the cell is
		// checked: the bit feeds the register.
		fault.SAF{Cell: 3, Value: 1},
	}}
	mk := bomFactory(n)
	r := misrReadbackRunner{w: w}

	oracle := CampaignEngine(r, u, mk, 1, EngineOracle)
	if oracle.FalsePositive {
		t.Fatal("clean run detected")
	}
	if oracle.Detected != 2 {
		t.Fatalf("oracle detected %d of %d, want 2 (the aliased pair and SA1 escape)",
			oracle.Detected, oracle.Total)
	}
	assertEngineEquivalence(t, r, u, mk)

	got := CampaignEngine(r, u, mk, 1, EngineCompiled)
	if got.Stats == nil || got.Stats.Engine != EngineCompiled {
		t.Fatalf("observer campaign did not run on the compiled engine: %+v", got.Stats)
	}

	// The checked-read over-approximation calls every diverging read a
	// detection, wrongly flagging the aliased pair (and SA1's oracle
	// outcome no longer matches its replay) — the reason compressed
	// comparators must use fold/observe annotations.
	wrong := CampaignEngine(misrReadbackRunner{w: w, checked: true}, u, mk, 1, EngineCompiled)
	if wrong.Detected != 3 {
		t.Fatalf("checked-read replay detected %d, want 3 (over-approximation flags the aliased pair)",
			wrong.Detected)
	}
}

// TestEngineEquivalenceObserverRunners extends the engine-equivalence
// property to the signature-observer runners: the compressed BIST
// controller over full scheme iterations.
func TestEngineEquivalenceObserverRunners(t *testing.T) {
	t.Parallel()
	gen := prt.PaperWOMConfig().Gen
	for _, n := range []int{17, 33} {
		r := BISTRunner(prt.StandardScheme3(gen), 0)
		for _, u := range womUniverses(n, 4) {
			assertEngineEquivalence(t, r, u, womFactory(n, 4))
		}
	}
}

func TestEngineEquivalenceMISRReadback(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 33} {
		for _, w := range []int{1, 4} {
			r := misrReadbackRunner{w: w}
			for _, u := range []fault.Universe{
				{Name: "single-cell", Faults: fault.SingleCellUniverse(n, 1)},
				{Name: "coupling", Faults: fault.CouplingUniverse(fault.AdjacentPairs(n))},
			} {
				assertEngineEquivalence(t, r, u, bomFactory(n))
			}
		}
	}
}

// TestStatsReportEffectiveWorkers: a one-batch universe must report
// the clamped worker count, not the requested pool size — whichever
// shape the plan has.
func TestStatsReportEffectiveWorkers(t *testing.T) {
	t.Parallel()
	const n = 16 // 64 single-cell faults = one 64-machine batch
	faults := fault.SingleCellUniverse(n, 1)
	r := misrReadbackRunner{w: 4}
	for _, stream := range []bool{false, true} {
		run := func(engine Engine) *EngineStats {
			p := Plan{Runners: []Runner{r}, Memory: bomFactory(n), Workers: 8, Engine: engine}
			if stream {
				p.Stream = &fault.Stream{Name: "single", Source: fault.SliceSource(faults)}
			} else {
				p.Universe = fault.Universe{Name: "single", Faults: faults}
			}
			return p.Run().Results[0].Stats
		}
		c := run(EngineCompiled)
		if c == nil || c.Engine != EngineCompiled {
			t.Fatalf("stream=%v: Stats = %+v", stream, c)
		}
		if c.Workers != 1 {
			t.Errorf("stream=%v: compiled Workers = %d, want the effective 1", stream, c.Workers)
		}
		o := run(EngineOracle)
		if o == nil || o.Engine != EngineOracle {
			t.Fatalf("stream=%v: oracle Stats = %+v", stream, o)
		}
		if o.Workers != 8 {
			t.Errorf("stream=%v: oracle Workers = %d, want 8 (64 per-fault units keep the pool busy)", stream, o.Workers)
		}
	}
}

// unannotatedReplaySafe claims ReplaySafe but records no annotations,
// so its trace is not replayable and the campaign must fall back.
type unannotatedReplaySafe struct{}

func (unannotatedReplaySafe) Name() string { return "unannotated" }

func (unannotatedReplaySafe) ReplaySafe() {}

func (unannotatedReplaySafe) Run(mem ram.Memory) (bool, uint64) {
	mem.Write(0, 1)
	return mem.Read(0) != 1, 2
}

// falsePositiveReplaySafe detects on a fault-free memory, breaking the
// checked-read criterion, so the campaign must fall back.
type falsePositiveReplaySafe struct{}

func (falsePositiveReplaySafe) Name() string { return "false-positive" }

func (falsePositiveReplaySafe) ReplaySafe() {}

func (falsePositiveReplaySafe) Run(mem ram.Memory) (bool, uint64) {
	mem.Read(0)
	ram.AnnotateChecked(mem)
	return true, 1
}

// TestOracleFallbackVisibleInStats: when a replay-safe runner cannot
// actually replay, the silent oracle fallback must be visible in
// Stats instead of leaving the requested engine's label standing.
func TestOracleFallbackVisibleInStats(t *testing.T) {
	t.Parallel()
	const n = 8
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	for _, tc := range []struct {
		name string
		r    Runner
	}{
		{"non-replayable trace", unannotatedReplaySafe{}},
		{"false-positive clean run", falsePositiveReplaySafe{}},
	} {
		res := CampaignEngine(tc.r, u, bomFactory(n), 4, EngineCompiled)
		if res.Stats == nil {
			t.Fatalf("%s: Stats nil on oracle fallback", tc.name)
		}
		if res.Stats.Engine != EngineOracle {
			t.Errorf("%s: Stats.Engine = %v, want oracle", tc.name, res.Stats.Engine)
		}
		if res.Stats.Workers < 1 {
			t.Errorf("%s: Workers = %d", tc.name, res.Stats.Workers)
		}
	}
}
