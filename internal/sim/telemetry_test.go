package sim

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/telemetry"
)

// TestStreamTelemetryCounters: a streaming compiled run with a
// registry attached accounts every fault exactly once, splits its time
// between kernel/sink/source, and reports as sink wait exactly the
// lock wait its sinks return.  The high-water mark is the session
// layer's completion frontier, so the driver leaves it alone.
func TestStreamTelemetryCounters(t *testing.T) {
	const n = 33
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 6, 9).Faults

	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var samples []telemetry.Progress
	reg.OnProgress(0, func(pr telemetry.Progress) { // every flush
		mu.Lock()
		samples = append(samples, pr)
		mu.Unlock()
	})
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)

	reg.BeginStage("march", int64(len(faults)))
	const blocked = time.Microsecond
	if _, _, err := ShardsCompiledStream(context.Background(), p, fault.SliceSource(faults),
		StreamConfig{Chunk: 7, Workers: 1}, func(int) ChunkSink {
			return func(int, int, []int, []fault.Fault, []bool) time.Duration { return blocked }
		}); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if s.Faults != uint64(len(faults)) {
		t.Errorf("faults presented = %d, want %d", s.Faults, len(faults))
	}
	if s.CollapseIn != s.Faults || s.Reps != s.CollapseOut {
		t.Errorf("reps = %d, collapse in/out = %d/%d for %d faults", s.Reps, s.CollapseIn, s.CollapseOut, s.Faults)
	}
	wantChunks := uint64((len(faults) + 6) / 7)
	if s.Chunks != wantChunks {
		t.Errorf("chunks = %d, want %d", s.Chunks, wantChunks)
	}
	if s.Kernel <= 0 {
		t.Errorf("kernel time = %v", s.Kernel)
	}
	if want := time.Duration(wantChunks) * blocked; s.SinkWait != want {
		t.Errorf("sink wait = %v, want %v (the sinks' reported lock wait)", s.SinkWait, want)
	}
	if len(s.Workers) != 1 || s.Workers[0].Faults != s.Faults {
		t.Errorf("worker rows: %+v", s.Workers)
	}

	// The final progress sample is the completed stage: everything
	// done, ETA zero, and no high-water mark from the driver.
	mu.Lock()
	defer mu.Unlock()
	if len(samples) == 0 {
		t.Fatal("no progress samples")
	}
	last := samples[len(samples)-1]
	if last.Done != int64(len(faults)) {
		t.Errorf("final Done = %d, want %d", last.Done, len(faults))
	}
	if last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETA)
	}
	if last.HighWater != 0 {
		t.Errorf("final high water = %d, want 0 (the driver publishes none)", last.HighWater)
	}
	if last.FaultsPerSec <= 0 {
		t.Errorf("final faults/s = %v", last.FaultsPerSec)
	}
}

// TestStreamTelemetryRace hammers one registry from two concurrent
// multi-worker streaming campaigns while a reader polls snapshots —
// the -race guard for the engine-side instrumentation (the
// registry-internal guard lives in internal/telemetry).  Aggregate
// totals stay exact even though per-worker attribution blurs.
func TestStreamTelemetryRace(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MarchB(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 8, 3).Faults

	reg := telemetry.NewRegistry()
	reg.OnProgress(0, func(telemetry.Progress) {}) // emission path under race too
	reg.BeginStage("race", int64(len(faults)))
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)

	const runs = 2
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
			}
		}
	}()
	errs := make([]error, runs)
	var runsWG sync.WaitGroup
	for i := 0; i < runs; i++ {
		runsWG.Add(1)
		go func(i int) {
			defer runsWG.Done()
			_, _, errs[i] = ShardsCompiledStream(context.Background(), p, fault.SliceSource(faults),
				StreamConfig{Chunk: 5, Workers: 3}, discard)
		}(i)
	}
	runsWG.Wait()
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	s := reg.Snapshot()
	if want := uint64(runs * len(faults)); s.Faults != want {
		t.Errorf("faults presented = %d, want %d", s.Faults, want)
	}
	if s.Reps == 0 || s.Reps > s.Faults {
		t.Errorf("collapsed reps = %d of %d faults", s.Reps, s.Faults)
	}
}
