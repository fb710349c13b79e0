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

// TestSessionTelemetryDetail: with a registry attached, a materialized
// session populates the registry-gated EngineStats detail (per-worker
// kernel time, cache accounting) and delivers one StageReport per
// stage through OnStage.
func TestSessionTelemetryDetail(t *testing.T) {
	const n = 32
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var reports []telemetry.StageReport
	reg.OnStage(func(rep telemetry.StageReport) {
		mu.Lock()
		reports = append(reports, rep)
		mu.Unlock()
	})
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
		if len(st.Stats.KernelTime) == 0 {
			t.Errorf("%s: no per-worker kernel time with registry attached", st.Runner)
		}
		if st.Stats.CacheMisses != 1 {
			t.Errorf("%s: cold-cache stage CacheMisses = %d", st.Runner, st.Stats.CacheMisses)
		}
	}
	if len(reports) != len(s.Stages) {
		t.Fatalf("stage reports = %d, want %d", len(reports), len(s.Stages))
	}
	for _, rep := range reports {
		if rep.Universe != "single" || rep.Engine != "compiled" {
			t.Errorf("report labels: %+v", rep)
		}
		if rep.Entered != u.Len() || rep.Elapsed <= 0 {
			t.Errorf("report body: %+v", rep)
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
// and source-wait splits (the 16-worker contention question), computes
// sink-wait shares, and reports its stages.
func TestStreamTelemetryDetail(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var reports []telemetry.StageReport
	reg.OnStage(func(rep telemetry.StageReport) {
		mu.Lock()
		reports = append(reports, rep)
		mu.Unlock()
	})
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)

	src := fault.FullCouplingSource(9)
	st := &fault.Stream{Name: "cf-exhaustive", Source: src}
	res := CampaignStream(MarchRunner(march.MarchCMinus(), nil), st, bomFactory(9), 2, 64)
	if res.Stats == nil || res.Stats.Elapsed <= 0 || res.Stats.FaultsPerSec <= 0 {
		t.Fatalf("streaming Stats = %+v", res.Stats)
	}
	if got := len(res.Stats.SinkWait); got == 0 || got > res.Stats.Workers {
		t.Errorf("SinkWait rows = %d of %d workers", got, res.Stats.Workers)
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
	if len(reports) != 1 || reports[0].Universe != "cf-exhaustive" {
		t.Fatalf("stage reports: %+v", reports)
	}
	if len(reports[0].SinkWait) != len(res.Stats.SinkWait) {
		t.Errorf("report sink-wait rows = %d", len(reports[0].SinkWait))
	}
}

// TestSinkWaitSharesDetached: without a registry there is no per-worker
// detail, and the shares helper reports that as nil rather than
// fabricating zeros.
func TestSinkWaitSharesDetached(t *testing.T) {
	t.Parallel()
	src := fault.FullCouplingSource(9)
	st := &fault.Stream{Name: "cf-exhaustive", Source: src}
	res := CampaignStream(MarchRunner(march.MarchCMinus(), nil), st, bomFactory(9), 2, 64)
	if res.Stats == nil {
		t.Fatal("Stats nil")
	}
	if res.Stats.SinkWait != nil {
		t.Errorf("detached run has per-worker SinkWait: %v", res.Stats.SinkWait)
	}
	if shares := res.Stats.SinkWaitShares(); shares != nil {
		t.Errorf("detached SinkWaitShares = %v, want nil", shares)
	}
	if res.Stats.Elapsed <= 0 {
		t.Errorf("always-on Elapsed missing: %v", res.Stats.Elapsed)
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
