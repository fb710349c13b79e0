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

// TestStreamTelemetryCounters: a streaming compiled run returns one
// Local per worker that accounts for every fault exactly once, reports
// as sink wait exactly the lock wait its sinks returned, and fits its
// timed phases inside the run's wall time, registry or no registry.
// An attached registry receives the same totals.
func TestStreamTelemetryCounters(t *testing.T) {
	const n = 33
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 6, 9).Faults
	const blocked = time.Microsecond
	wantChunks := uint64((len(faults) + 6) / 7)
	run := func() telemetry.Local {
		t.Helper()
		t0 := time.Now()
		ws, err := ShardsCompiledStream(context.Background(), p, fault.SliceSource(faults),
			StreamConfig{Chunk: 7, Workers: 1}, func(int) ChunkSink {
				return func(int, int, []int, []fault.Fault, []bool) time.Duration { return blocked }
			})
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != 1 {
			t.Fatalf("worker rows = %d, want 1", len(ws))
		}
		w := ws[0]
		if w.Faults != uint64(len(faults)) || w.Chunks != wantChunks {
			t.Errorf("faults/chunks = %d/%d, want %d/%d", w.Faults, w.Chunks, len(faults), wantChunks)
		}
		if w.Reps == 0 || w.Reps > w.Faults || w.Batches == 0 {
			t.Errorf("reps = %d, batches = %d for %d faults", w.Reps, w.Batches, w.Faults)
		}
		if w.Kernel <= 0 {
			t.Errorf("kernel time = %v", w.Kernel)
		}
		if want := time.Duration(wantChunks) * blocked; w.SinkWait != want {
			t.Errorf("sink wait = %v, want %v (the sinks' reported lock wait)", w.SinkWait, want)
		}
		if sum := w.Kernel + w.SinkWait + w.Sink + w.SourceWait; sum > wall {
			t.Errorf("timed phases sum to %v, past the run's %v", sum, wall)
		}
		return w
	}
	run() // detached

	reg := telemetry.NewRegistry()
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)
	w := run()

	s := reg.Snapshot()
	if s.Local != w {
		t.Errorf("registry totals %+v, want the worker's %+v", s.Local, w)
	}
	if s.Workers != 1 {
		t.Errorf("registry workers = %d, want 1", s.Workers)
	}
	if s.CollapseIn != s.Faults || s.Reps != s.CollapseOut {
		t.Errorf("reps = %d, collapse in/out = %d/%d for %d faults", s.Reps, s.CollapseIn, s.CollapseOut, s.Faults)
	}
}

// TestStreamTelemetryRace hammers one registry from two concurrent
// multi-worker streaming campaigns while a reader polls snapshots —
// the -race guard for the engine-side instrumentation (the
// registry-internal guard lives in internal/telemetry).  Each run's
// returned totals cover its own faults only, and the registry's
// process totals cover both.
func TestStreamTelemetryRace(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MarchB(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 8, 3).Faults

	reg := telemetry.NewRegistry()
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
	totals := make([][]telemetry.Local, runs)
	var runsWG sync.WaitGroup
	for i := 0; i < runs; i++ {
		runsWG.Add(1)
		go func(i int) {
			defer runsWG.Done()
			totals[i], errs[i] = ShardsCompiledStream(context.Background(), p, fault.SliceSource(faults),
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
		var sum telemetry.Local
		for _, w := range totals[i] {
			sum.Add(w)
		}
		if len(totals[i]) != 3 || sum.Faults != uint64(len(faults)) {
			t.Errorf("run %d: %d worker rows presenting %d faults, want 3 rows and %d", i, len(totals[i]), sum.Faults, len(faults))
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
