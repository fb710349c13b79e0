package coverage

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
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

// TestConcurrentSessionsReportTheirOwnProgress: two streaming sessions
// run at once with one registry attached, 20 times.  Each sample comes
// from its own session's fold, so no sample of the 8-cell MATS+
// session (672 faults) counts more faults done than its stage holds or
// a frontier past its universe.
func TestConcurrentSessionsReportTheirOwnProgress(t *testing.T) {
	small := &Plan{
		Runners: []Runner{MarchRunner(march.MATSPlus(), nil)},
		Stream:  &fault.Stream{Name: "cf-exhaustive", Source: fault.FullCouplingSource(8)},
		Memory:  bomFactory(8), Workers: 2, Chunk: 64,
	}
	const smallN = 8 * 7 * 12
	large := &Plan{
		Runners: []Runner{MarchRunner(march.MarchCMinus(), nil)},
		Stream:  &fault.Stream{Name: "cf-exhaustive", Source: fault.FullCouplingSource(48)},
		Memory:  bomFactory(48), Workers: 2, Chunk: 64,
	}
	label := small.Runners[0].Name()
	var (
		mu      sync.Mutex
		samples []telemetry.Progress
	)
	reg := telemetry.NewRegistry()
	reg.OnProgress(0, func(p telemetry.Progress) { // every sample
		if p.Stage == label {
			mu.Lock()
			samples = append(samples, p)
			mu.Unlock()
		}
	})
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)

	for range 20 {
		var wg sync.WaitGroup
		for _, p := range []*Plan{small, large} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Run()
			}()
		}
		wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(samples) == 0 {
		t.Fatalf("no %s samples", label)
	}
	bad := 0
	for _, p := range samples {
		if p.Total != smallN || p.Done > p.Total || p.HighWater > smallN {
			if bad++; bad <= 3 {
				t.Errorf("%s sample %+v: want Done <= Total = %d and HighWater <= %d", label, p, smallN, smallN)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d %s samples describe another session's stage", bad, len(samples), label)
	}
}

// TestProgressFollowsEachStage: a two-stage session on partition 2/2
// samples every frontier advance.  Within a stage Done and HighWater
// never decrease, Survivors never increases, and the three describe
// one cut (without dropping, the frontier is the stage base plus
// Done); the second stage restarts Done at 0 and HighWater at its
// base; and each stage's last sample shows it finished: Done == Total,
// ETA 0 and the stage's own survivor count.  With dropping the second
// stage presents only the survivors of the first, which is its Total.
func TestProgressFollowsEachStage(t *testing.T) {
	const n = 16
	src := fault.FullCouplingSource(n)
	count, _ := src.Count()
	lo, hi := fault.PartitionRange(count, 1, 2)
	for _, drop := range []bool{false, true} {
		var samples []telemetry.Progress
		reg := telemetry.NewRegistry()
		reg.OnProgress(0, func(p telemetry.Progress) { samples = append(samples, p) })
		telemetry.SetActive(reg)
		s := (&Plan{
			Runners: []Runner{MarchRunner(march.MATSPlus(), nil), MarchRunner(march.MarchCMinus(), nil)},
			Stream:  &fault.Stream{Name: "cf-exhaustive", Source: src},
			Memory:  bomFactory(n), Workers: 2, Chunk: 64, Drop: drop,
			PartitionIndex: 2, PartitionCount: 2,
		}).Run()
		telemetry.SetActive(nil)

		var stages [][]telemetry.Progress
		for i, p := range samples {
			if i == 0 || p.Stage != samples[i-1].Stage {
				stages = append(stages, nil)
			}
			stages[len(stages)-1] = append(stages[len(stages)-1], p)
		}
		if len(stages) != len(s.Stages) {
			t.Fatalf("drop=%v: samples of %d stages, session ran %d", drop, len(stages), len(s.Stages))
		}
		for k, ps := range stages {
			st := s.Stages[k]
			if ps[0].Stage != st.Runner {
				t.Errorf("drop=%v stage %d: samples of %q, want %q", drop, k, ps[0].Stage, st.Runner)
			}
			for i, p := range ps {
				if p.HighWater < int64(lo) || p.HighWater > int64(hi) || p.Done < 0 || p.Done > p.HighWater-int64(lo) {
					t.Errorf("drop=%v %s sample %d: Done %d, HighWater %d outside the stage [%d, %d)", drop, st.Runner, i, p.Done, p.HighWater, lo, hi)
				}
				if !drop && p.Done != p.HighWater-int64(lo) {
					t.Errorf("drop=%v %s sample %d: Done %d, want HighWater %d less the base %d", drop, st.Runner, i, p.Done, p.HighWater, lo)
				}
				if i > 0 && (p.Done < ps[i-1].Done || p.HighWater < ps[i-1].HighWater || p.Survivors > ps[i-1].Survivors) {
					t.Errorf("drop=%v %s sample %d went backwards: %+v after %+v", drop, st.Runner, i, p, ps[i-1])
				}
			}
			last := ps[len(ps)-1]
			if last.Total != int64(st.Entered) || last.Done != last.Total || last.HighWater != int64(hi) || last.ETA != 0 {
				t.Errorf("drop=%v %s last sample %+v: want Done == Total == %d, HighWater %d and ETA 0", drop, st.Runner, last, st.Entered, hi)
			}
			if last.Survivors != int64(st.Survivors) {
				t.Errorf("drop=%v %s last sample: %d survivors, the stage ended with %d", drop, st.Runner, last.Survivors, st.Survivors)
			}
		}
	}
}

// blockingFault holds its Inject until the registry has counted every
// other fault of the stage through its sink — the driver flushes a
// chunk's counts after the fold has taken it — or a timeout passes,
// which the test reports: a chunk that completes last.
type blockingFault struct {
	fault.Fault
	reg                *telemetry.Registry
	others             uint64
	released, timedOut *atomic.Bool
}

func (b blockingFault) Inject(m ram.Memory) ram.Memory {
	deadline := time.Now().Add(10 * time.Second)
	for b.reg.Snapshot().Faults < b.others {
		if time.Now().After(deadline) {
			b.timedOut.Store(true)
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.released.Store(true)
	return b.Fault.Inject(m)
}

// TestProgressHighWaterIsFrontier: Progress.HighWater is the resume
// point, so it must be the fold's completion frontier, never the
// largest index some worker delivered.  The first fault of the stage
// (the first of partition 2/2, so the base is not 0) blocks its
// oracle chunk until every other chunk has been delivered; until then
// no sample may report a frontier past the stage base, and the last
// one reports the end of the partition.
func TestProgressHighWaterIsFrontier(t *testing.T) {
	const n = 4
	faults := fault.SingleCellUniverse(n, 1)
	lo, hi := fault.PartitionRange(len(faults), 1, 2)
	reg := telemetry.NewRegistry()
	var released, timedOut atomic.Bool
	faults[lo] = blockingFault{Fault: faults[lo], reg: reg, others: uint64(hi - lo - 1), released: &released, timedOut: &timedOut}

	type sample struct {
		done, highWater int64
		released        bool
	}
	var samples []sample
	reg.OnProgress(0, func(p telemetry.Progress) { // every sample; the fold's lock orders them
		samples = append(samples, sample{p.Done, p.HighWater, released.Load()})
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
		t.Fatal("the blocked chunk timed out: the other chunks did not all complete")
	}
	if s.Results[0].Total != hi-lo {
		t.Fatalf("stage presented %d faults, want %d", s.Results[0].Total, hi-lo)
	}
	if len(samples) == 0 {
		t.Fatal("no progress samples")
	}
	for i, sm := range samples {
		if !sm.released && sm.highWater != int64(lo) {
			t.Errorf("sample %d (done %d) before the first chunk completed: HighWater %d, want the stage base %d",
				i, sm.done, sm.highWater, lo)
		}
		if sm.done != sm.highWater-int64(lo) {
			t.Errorf("sample %d: done %d is not the folded prefix [%d, %d)", i, sm.done, lo, sm.highWater)
		}
	}
	if last := samples[len(samples)-1]; last.highWater != int64(hi) {
		t.Errorf("final HighWater %d, want the partition end %d", last.highWater, hi)
	}
}

// TestExecutedOpShares pins the instruction counts sparse replay
// rests its gain on.  A March C− stage over a 256×4 WOM's standard
// universe, on one worker at a fixed chunk, executes under a tenth of
// its scheduled instructions, since a 64-fault batch reaches few of
// the 256 cells; it fails if the sparse path silently stops engaging.
// PRT-3's recurrence and the BIST controller's signature spread errors
// through every cell, so their stages skip nothing: over retention
// faults that never decay, where no pass ends early, they execute
// every scheduled instruction, while March C− still skips.
func TestExecutedOpShares(t *testing.T) {
	t.Parallel()
	bgs := march.DataBackgrounds(4)
	gen := prt.PaperWOMConfig().Gen
	share := func(u fault.Universe, runners ...Runner) []*EngineStats {
		t.Helper()
		p := Plan{Runners: runners, Universe: u, Memory: womFactory(256, 4), Workers: 1, Chunk: 1024}
		s := p.Run()
		out := make([]*EngineStats, len(runners))
		for i, r := range s.Results {
			if r.Stats.Engine != EngineCompiled || r.Stats.ScheduledOps == 0 {
				t.Fatalf("%s: %+v, want a compiled stage", runners[i].Name(), r.Stats)
			}
			out[i] = r.Stats
		}
		return out
	}
	marchCMinus := MarchRunner(march.MarchCMinus(), bgs)
	st := share(fault.StandardUniverse(256, 4, 16, 1), marchCMinus)[0]
	if 10*st.ExecutedOps >= st.ScheduledOps {
		t.Errorf("March C- executed %d of %d scheduled ops, want under 10%%", st.ExecutedOps, st.ScheduledOps)
	}
	idle := fault.Universe{Name: "retention", Faults: fault.RetentionUniverse(256, 4, math.MaxUint64)}
	dense := []Runner{PRTRunner(prt.StandardScheme3(gen)), BISTRunner(prt.StandardScheme3(gen), 0)}
	stats := share(idle, append([]Runner{marchCMinus}, dense...)...)
	if st := stats[0]; st.ExecutedOps >= st.ScheduledOps {
		t.Errorf("March C- executed all %d scheduled ops over idle faults", st.ScheduledOps)
	}
	for i, r := range dense {
		if st := stats[i+1]; st.ExecutedOps != st.ScheduledOps {
			t.Errorf("%s executed %d of %d scheduled ops, want every one", r.Name(), st.ExecutedOps, st.ScheduledOps)
		}
	}
}
