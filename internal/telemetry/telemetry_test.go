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
	l := Local{Faults: 1, Reps: 2, Batches: 3, Chunks: 4, Kernel: 5, SinkWait: 6, Sink: 7, SourceWait: 8}
	l.Add(l)
	if want := (Local{Faults: 2, Reps: 4, Batches: 6, Chunks: 8, Kernel: 10, SinkWait: 12, Sink: 14, SourceWait: 16}); l != want {
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
	r.ObserveIndex(9)
	r.ReportSurvivors(1)
	r.BeginStage("x", 10)
	r.OnProgress(time.Second, func(Progress) { t.Error("callback on nil registry") })
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

// TestProgressCadence: with a fake clock, emissions happen exactly
// when the cadence interval has elapsed — not on every flush.
func TestProgressCadence(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	var got []Progress
	r.OnProgress(time.Second, func(p Progress) { got = append(got, p) })
	r.ReportSurvivors(42)
	r.BeginStage("stage-a", 100)

	r.Flush(Local{Faults: 10}) // same instant as BeginStage: suppressed
	if len(got) != 0 {
		t.Fatalf("emitted %d samples with no time elapsed", len(got))
	}
	now = now.Add(400 * time.Millisecond)
	r.Flush(Local{Faults: 10}) // 0.4s since baseline: still suppressed
	if len(got) != 0 {
		t.Fatalf("emitted before the cadence interval")
	}
	now = now.Add(700 * time.Millisecond)
	r.ObserveIndex(19)
	r.Flush(Local{Faults: 5}) // 1.1s: one emission
	if len(got) != 1 {
		t.Fatalf("emissions after interval = %d, want 1", len(got))
	}
	p := got[0]
	if p.Stage != "stage-a" || p.Done != 25 || p.Total != 100 {
		t.Errorf("sample: %+v", p)
	}
	if p.Survivors != 42 || p.HighWater != 19 {
		t.Errorf("survivors/highwater: %+v", p)
	}
	if p.Elapsed != 1100*time.Millisecond {
		t.Errorf("elapsed = %v", p.Elapsed)
	}
	now = now.Add(100 * time.Millisecond)
	r.Flush(Local{Faults: 5}) // 0.1s after the last emission: suppressed
	if len(got) != 1 {
		t.Fatalf("re-emitted inside the interval")
	}
}

// TestProgressEveryFlush: every <= 0 emits on every flush — the mode
// tests use to observe each sample.
func TestProgressEveryFlush(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.SetClock(func() time.Time { now = now.Add(time.Millisecond); return now })
	var n int
	r.OnProgress(0, func(Progress) { n++ })
	r.BeginStage("s", 10)
	for i := 0; i < 5; i++ {
		r.Flush(Local{Faults: 1})
	}
	if n != 5 {
		t.Errorf("emissions = %d, want 5", n)
	}
}

// TestBeginStageResetsBaseline: Done counts restart per stage and the
// high-water mark resets.
func TestBeginStageResetsBaseline(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.SetClock(func() time.Time { now = now.Add(time.Millisecond); return now })
	var last Progress
	r.OnProgress(0, func(p Progress) { last = p })

	r.BeginStage("first", 50)
	r.ObserveIndex(40)
	r.Flush(Local{Faults: 30})
	if last.Done != 30 || last.HighWater != 40 {
		t.Fatalf("first stage: %+v", last)
	}
	r.BeginStage("second", 50)
	r.Flush(Local{Faults: 10})
	if last.Stage != "second" || last.Done != 10 {
		t.Errorf("second stage baseline: %+v", last)
	}
	if last.HighWater != 0 {
		t.Errorf("high water not reset: %d", last.HighWater)
	}
}

// TestRegistryRace hammers one registry from many writer goroutines
// while snapshot readers and progress emissions run concurrently —
// the -race guard for the whole counter design.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	r.OnProgress(0, func(Progress) {}) // emit on every flush
	r.BeginStage("race", 1<<20)
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
				r.ObserveIndex(int64(id*500 + j))
				r.CacheLookup(j%2 == 0)
				r.ArenaGet(j%3 == 0)
				r.CollapseDelta(64, 60)
				r.ReportSurvivors(int64(j))
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
