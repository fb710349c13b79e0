package coverage

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/ram"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestStageTimingAllEngines: the always-on EngineStats timing fields
// are populated whichever engine actually ran — the three requested
// strategies and the silent oracle fallback alike — with no telemetry
// registry attached.
func TestStageTimingAllEngines(t *testing.T) {
	t.Parallel()
	const n = 16
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	r := MarchRunner(march.MarchCMinus(), nil)
	for _, engine := range []Engine{EngineOracle, EngineBitParallel, EngineCompiled} {
		res := CampaignEngine(r, u, bomFactory(n), 2, engine)
		if res.Stats == nil {
			t.Fatalf("%v: Stats nil", engine)
		}
		if res.Stats.Elapsed <= 0 {
			t.Errorf("%v: Elapsed = %v", engine, res.Stats.Elapsed)
		}
		if res.Stats.FaultsPerSec <= 0 {
			t.Errorf("%v: FaultsPerSec = %v", engine, res.Stats.FaultsPerSec)
		}
		if cr := res.Stats.CollapseRatio; cr <= 0 || cr > 1 {
			t.Errorf("%v: CollapseRatio = %v", engine, cr)
		}
	}
	// The oracle fallback path (a replay-safe runner whose trace cannot
	// actually replay) flows through the same stage timing.
	res := CampaignEngine(unannotatedReplaySafe{}, u, bomFactory(n), 2, EngineCompiled)
	if res.Stats == nil || res.Stats.Engine != EngineOracle {
		t.Fatalf("fallback Stats = %+v", res.Stats)
	}
	if res.Stats.Elapsed <= 0 || res.Stats.FaultsPerSec <= 0 {
		t.Errorf("fallback timing: elapsed=%v faults/s=%v", res.Stats.Elapsed, res.Stats.FaultsPerSec)
	}
}

// TestSessionTelemetryDetail: with a registry attached, a
// materialized session still fills the per-worker detail from its
// driver, and the registry's process counters see every presented
// fault and program-cache lookup.
func TestSessionTelemetryDetail(t *testing.T) {
	const n = 32
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	reg := telemetry.NewRegistry()
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)

	p := Plan{
		Runners:  []Runner{MarchRunner(march.MarchCMinus(), nil), MarchRunner(march.MATSPlus(), nil)},
		Universe: u, Memory: bomFactory(n), Workers: 2,
		Engine: EngineCompiled, Cache: sim.NewProgramCache(),
	}
	s := p.Run()
	for _, st := range s.Stages {
		if st.Stats.Elapsed <= 0 || st.Stats.FaultsPerSec <= 0 {
			t.Errorf("%s: timing %v / %v", st.Runner, st.Stats.Elapsed, st.Stats.FaultsPerSec)
		}
		if len(st.Stats.KernelTime) != st.Stats.Workers {
			t.Errorf("%s: %d kernel-time rows for %d workers", st.Runner, len(st.Stats.KernelTime), st.Stats.Workers)
		}
		if st.Stats.CacheMisses != 1 {
			t.Errorf("%s: cold-cache stage CacheMisses = %d", st.Runner, st.Stats.CacheMisses)
		}
	}

	snap := reg.Snapshot()
	if snap.Faults != uint64(2*u.Len()) {
		t.Errorf("registry faults = %d, want %d", snap.Faults, 2*u.Len())
	}
	if snap.CacheMisses != 2 {
		t.Errorf("cache misses = %d, want 2 (one per cold stage)", snap.CacheMisses)
	}
}

// TestStreamTelemetryDetail: a streaming session fills the sink-wait
// and source-wait splits (the 16-worker contention question) and
// computes sink-wait shares.
func TestStreamTelemetryDetail(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)

	src := fault.FullCouplingSource(9)
	st := &fault.Stream{Name: "cf-exhaustive", Source: src}
	res := CampaignStream(MarchRunner(march.MarchCMinus(), nil), st, bomFactory(9), 2, 64)
	if res.Stats == nil || res.Stats.Elapsed <= 0 || res.Stats.FaultsPerSec <= 0 {
		t.Fatalf("streaming Stats = %+v", res.Stats)
	}
	if got := len(res.Stats.SinkWait); got != res.Stats.Workers || len(res.Stats.SourceWait) != got {
		t.Errorf("SinkWait/SourceWait rows = %d/%d of %d workers", got, len(res.Stats.SourceWait), res.Stats.Workers)
	}
	shares := res.Stats.SinkWaitShares()
	if len(shares) != len(res.Stats.SinkWait) {
		t.Errorf("SinkWaitShares rows = %d", len(shares))
	}
	for i, sh := range shares {
		if sh < 0 || sh > 1 {
			t.Errorf("worker %d sink-wait share = %v", i, sh)
		}
	}
}

// TestSinkWaitSharesDetached: without a registry a stage still has
// its per-worker detail, one row per worker, because the driver
// returns it with the stage.
func TestSinkWaitSharesDetached(t *testing.T) {
	t.Parallel()
	src := fault.FullCouplingSource(9)
	st := &fault.Stream{Name: "cf-exhaustive", Source: src}
	res := CampaignStream(MarchRunner(march.MarchCMinus(), nil), st, bomFactory(9), 2, 64)
	if res.Stats == nil {
		t.Fatal("Stats nil")
	}
	es := res.Stats
	if es.Workers < 1 || len(es.KernelTime) != es.Workers || len(es.SinkWait) != es.Workers || len(es.SourceWait) != es.Workers {
		t.Errorf("detached rows: kernel %d, sink-wait %d, source-wait %d for %d workers",
			len(es.KernelTime), len(es.SinkWait), len(es.SourceWait), es.Workers)
	}
	if shares := es.SinkWaitShares(); len(shares) != es.Workers {
		t.Errorf("detached SinkWaitShares = %v, want %d rows", shares, es.Workers)
	}
	if es.Elapsed <= 0 {
		t.Errorf("always-on Elapsed missing: %v", es.Elapsed)
	}
}

// TestConcurrentSessionsKeepTheirOwnTimes: two streaming sessions run
// at once in one process with a registry attached.  Each stage's
// per-worker times come from its own driver, so no worker can have
// spent more time in the kernel, the source and the fold's lock than
// its stage lasted.
func TestConcurrentSessionsKeepTheirOwnTimes(t *testing.T) {
	const n = 48
	telemetry.SetActive(telemetry.NewRegistry())
	defer telemetry.SetActive(nil)
	plan := func() *Plan {
		return &Plan{
			Runners: []Runner{MarchRunner(march.MarchCMinus(), nil), MarchRunner(march.MATSPlus(), nil)},
			Stream:  &fault.Stream{Name: "cf-exhaustive", Source: fault.FullCouplingSource(n)},
			Memory:  bomFactory(n), Workers: 2, Chunk: 64,
		}
	}
	sessions := make([]*Session, 2)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i] = plan().Run()
		}(i)
	}
	wg.Wait()
	for i, s := range sessions {
		for _, st := range s.Stages {
			es := st.Stats
			if len(es.KernelTime) != es.Workers {
				t.Fatalf("session %d %s: %d rows for %d workers", i, st.Runner, len(es.KernelTime), es.Workers)
			}
			for w := range es.KernelTime {
				if busy := es.KernelTime[w] + es.SourceWait[w] + es.SinkWait[w]; busy > es.Elapsed {
					t.Errorf("session %d %s worker %d: kernel %v + source wait %v + sink wait %v = %v, past the stage's %v",
						i, st.Runner, w, es.KernelTime[w], es.SourceWait[w], es.SinkWait[w], busy, es.Elapsed)
				}
			}
		}
	}
}

// blockingFault holds its Inject until release closes (or a timeout
// passes, which the test reports) — a chunk that completes last.
type blockingFault struct {
	fault.Fault
	release  <-chan struct{}
	timedOut *atomic.Bool
}

func (b blockingFault) Inject(m ram.Memory) ram.Memory {
	select {
	case <-b.release:
	case <-time.After(10 * time.Second):
		b.timedOut.Store(true)
	}
	return b.Fault.Inject(m)
}

// TestProgressHighWaterIsFrontier: Progress.HighWater is the resume
// point, so it must be the fold's completion frontier, never the
// largest index some worker delivered.  The first fault of the stage
// (the first of partition 2/2, so the base is not 0) blocks its
// oracle chunk until every other chunk has been delivered; until then
// every sample must report the stage base, and the last one the end of
// the partition.
func TestProgressHighWaterIsFrontier(t *testing.T) {
	const n = 4
	faults := fault.SingleCellUniverse(n, 1)
	lo, hi := fault.PartitionRange(len(faults), 1, 2)
	release := make(chan struct{})
	var timedOut atomic.Bool
	faults[lo] = blockingFault{Fault: faults[lo], release: release, timedOut: &timedOut}

	type sample struct {
		done, highWater int64
		released        bool
	}
	var (
		mu       sync.Mutex
		samples  []sample
		released bool
	)
	reg := telemetry.NewRegistry()
	reg.OnProgress(0, func(p telemetry.Progress) { // every flush
		mu.Lock()
		defer mu.Unlock()
		samples = append(samples, sample{p.Done, p.HighWater, released})
		// Every chunk but the blocked one (a single fault: the oracle
		// stage of 2·n faults shrinks its chunks to one) is in.
		if !released && p.Done == int64(hi-lo-1) {
			released = true
			close(release)
		}
	})
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)

	s := (&Plan{
		Runners: []Runner{MarchRunner(march.MATSPlus(), nil)},
		Stream:  &fault.Stream{Name: "single", Source: fault.SliceSource(faults)},
		Memory:  bomFactory(n), Workers: 2, Engine: EngineOracle,
		PartitionIndex: 2, PartitionCount: 2,
	}).Run()
	if timedOut.Load() {
		t.Fatal("the blocked chunk was never released: the other chunks did not all complete")
	}
	if s.Results[0].Total != hi-lo {
		t.Fatalf("stage presented %d faults, want %d", s.Results[0].Total, hi-lo)
	}
	mu.Lock()
	defer mu.Unlock()
	if !released {
		t.Fatal("no sample saw every unblocked chunk delivered")
	}
	for i, sm := range samples {
		if !sm.released && sm.highWater != int64(lo) {
			t.Errorf("sample %d (done %d) before the first chunk completed: HighWater %d, want the stage base %d",
				i, sm.done, sm.highWater, lo)
		}
	}
	if last := samples[len(samples)-1]; last.highWater != int64(hi) {
		t.Errorf("final HighWater %d, want the partition end %d", last.highWater, hi)
	}
}
