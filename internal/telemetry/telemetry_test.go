package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestSnapshotAggregation: flushed chunks sum into the process
// counters, the workers gauge keeps the largest pool, and the event
// counters count.
func TestSnapshotAggregation(t *testing.T) {
	r := NewRegistry()
	r.ObserveWorkers(2)
	r.Flush(Local{Faults: 10, Reps: 8, Batches: 1, Kernel: 1000})
	r.Flush(Local{Faults: 5, Chunks: 1, SinkWait: 200, Sink: 300})
	r.ObserveWorkers(1)
	r.Flush(Local{Faults: 7, Reps: 7, SourceWait: 400})
	r.CacheLookup(true)
	r.CacheLookup(false)
	r.CacheLookup(false)
	r.ArenaGet(true)
	r.ArenaGet(false)
	r.CollapseDelta(100, 60)
	r.CheckpointWrite(50)

	s := r.Snapshot()
	want := Local{Faults: 22, Reps: 15, Batches: 1, Chunks: 1, Kernel: 1000, SinkWait: 200, Sink: 300, SourceWait: 400}
	if s.Local != want {
		t.Errorf("totals: %+v, want %+v", s.Local, want)
	}
	if s.Workers != 2 {
		t.Errorf("workers = %d, want the largest pool, 2", s.Workers)
	}
	if s.CacheHits != 1 || s.CacheMisses != 2 {
		t.Errorf("cache: hits=%d misses=%d", s.CacheHits, s.CacheMisses)
	}
	if s.ArenaReuse != 1 || s.ArenaFresh != 1 {
		t.Errorf("arena: reuse=%d fresh=%d", s.ArenaReuse, s.ArenaFresh)
	}
	if s.CollapseIn != 100 || s.CollapseOut != 60 {
		t.Errorf("collapse: %d/%d", s.CollapseIn, s.CollapseOut)
	}
	if s.CheckpointWrites != 1 || s.CheckpointTime != 50 {
		t.Errorf("checkpoints: %d in %v", s.CheckpointWrites, s.CheckpointTime)
	}
	if m := s.Metrics(); m["faults_presented"] != 22 || m["workers"] != 2 {
		t.Errorf("metrics: %v", m)
	}
}

// TestLocalAdd: Add sums every field, the one accumulation the
// drivers' per-worker stage totals rest on.
func TestLocalAdd(t *testing.T) {
	l := Local{Faults: 1, Reps: 2, Batches: 3, Chunks: 4, Ops: 9, Kernel: 5, SinkWait: 6, Sink: 7, SourceWait: 8}
	l.Add(l)
	if want := (Local{Faults: 2, Reps: 4, Batches: 6, Chunks: 8, Ops: 18, Kernel: 10, SinkWait: 12, Sink: 14, SourceWait: 16}); l != want {
		t.Errorf("Add: %+v, want %+v", l, want)
	}
}

// TestNilRegistry: every method is a no-op on a nil receiver — the
// detached-instrumentation mode call sites rely on.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Flush(Local{Faults: 1})
	r.ObserveWorkers(4)
	r.CacheLookup(true)
	r.ArenaGet(false)
	r.CollapseDelta(5, 3)
	r.CheckpointWrite(1)
	r.OnProgress(time.Second, func(Progress) { t.Error("callback on nil registry") })
	r.Report(Progress{Done: 1}, time.Time{})
	if s := r.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil snapshot: %+v", s)
	}
}

// TestEstimate: the ETA math, including its unknowns.
func TestEstimate(t *testing.T) {
	fps, eta := Estimate(100, 400, time.Second)
	if fps != 100 {
		t.Errorf("faults/s = %v", fps)
	}
	if eta != 3*time.Second {
		t.Errorf("eta = %v, want 3s", eta)
	}
	if _, eta := Estimate(0, 400, time.Second); eta >= 0 {
		t.Errorf("nothing done: eta = %v, want negative", eta)
	}
	if _, eta := Estimate(100, 0, time.Second); eta >= 0 {
		t.Errorf("unknown total: eta = %v, want negative", eta)
	}
	if _, eta := Estimate(400, 400, time.Second); eta != 0 {
		t.Errorf("complete: eta = %v, want 0", eta)
	}
	if fps, _ := Estimate(100, 400, 0); fps != 0 {
		t.Errorf("zero elapsed: faults/s = %v", fps)
	}
}

// TestProgressCadence: with a fake clock, a stage reports nothing in
// its first interval, and the process gets at most one sample per
// interval, whichever stage offers it.  A delivered sample keeps the
// session's fields and gains its elapsed time, rate and ETA.
func TestProgressCadence(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	var got []Progress
	r.OnProgress(time.Second, func(p Progress) { got = append(got, p) })
	start := now
	offer := func(done int64) {
		r.Report(Progress{Stage: "stage-a", Done: done, Total: 100, HighWater: done + 3, Survivors: 42}, start)
	}

	offer(10) // the stage's first instant: suppressed
	now = now.Add(400 * time.Millisecond)
	offer(20) // 0.4s into the stage: still suppressed
	if len(got) != 0 {
		t.Fatalf("%d samples inside the stage's first interval", len(got))
	}
	now = now.Add(600 * time.Millisecond)
	offer(25) // 1s: one sample
	if len(got) != 1 {
		t.Fatalf("samples after one interval = %d, want 1", len(got))
	}
	want := Progress{Stage: "stage-a", Done: 25, Total: 100, HighWater: 28, Survivors: 42,
		Elapsed: time.Second, FaultsPerSec: 25, ETA: 3 * time.Second}
	if got[0] != want {
		t.Errorf("sample: %+v, want %+v", got[0], want)
	}

	// A second stage (or session) that started long ago still waits for
	// the process interval, and one that just started waits for its own.
	now = now.Add(500 * time.Millisecond)
	r.Report(Progress{Stage: "old"}, start.Add(-time.Hour))
	r.Report(Progress{Stage: "new"}, now.Add(-500*time.Millisecond))
	now = now.Add(500 * time.Millisecond)
	r.Report(Progress{Stage: "new"}, now.Add(-900*time.Millisecond))
	if len(got) != 1 {
		t.Fatalf("re-emitted inside the interval: %+v", got[1:])
	}
	r.Report(Progress{Stage: "old"}, start.Add(-time.Hour))
	offer(30) // same instant as the sample just delivered
	if len(got) != 2 || got[1].Stage != "old" {
		t.Fatalf("one interval later: %+v, want one sample of stage old", got[1:])
	}

	r.OnProgress(time.Second, nil)
	now = now.Add(time.Hour)
	offer(40)
	if len(got) != 2 {
		t.Errorf("sample delivered after the callback was removed")
	}
}

// TestProgressEveryReport: every <= 0 delivers every sample offered —
// the mode tests use to observe each one.
func TestProgressEveryReport(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.SetClock(func() time.Time { now = now.Add(time.Millisecond); return now })
	var n int
	r.OnProgress(0, func(Progress) { n++ })
	start := now
	for i := 0; i < 5; i++ {
		r.Report(Progress{Done: int64(i)}, start)
	}
	if n != 5 {
		t.Errorf("samples = %d, want 5", n)
	}
}

// TestRegistryRace hammers one registry from many writer goroutines
// while snapshot readers and progress samples run concurrently — the
// -race guard for the whole counter design.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	r.OnProgress(0, func(Progress) {}) // deliver every sample
	start := time.Now()
	const writers = 8
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		writersWG.Add(1)
		go func(id int) {
			defer writersWG.Done()
			r.ObserveWorkers(id + 1)
			for j := 0; j < 500; j++ {
				r.Flush(Local{Faults: 64, Reps: 60, Kernel: 10})
				r.Report(Progress{Stage: "race", Done: int64(j), Total: 500}, start)
				r.CacheLookup(j%2 == 0)
				r.ArenaGet(j%3 == 0)
				r.CollapseDelta(64, 60)
			}
		}(i)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	s := r.Snapshot()
	if want := uint64(writers * 500 * 64); s.Faults != want {
		t.Errorf("faults = %d, want %d", s.Faults, want)
	}
	if s.Workers != writers {
		t.Errorf("workers = %d, want %d", s.Workers, writers)
	}
}
