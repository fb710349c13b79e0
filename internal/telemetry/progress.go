package telemetry

import "time"

// Progress is one live campaign-progress sample, delivered through the
// OnProgress callback while a stage runs.
type Progress struct {
	// Stage labels the running stage (the runner name).
	Stage string
	// Done is the number of faults with verdicts so far in this stage;
	// Total the number the stage will present (<= 0 when unknown —
	// an inexact streaming Count).
	Done, Total int64
	// HighWater is the stage's completion frontier: every universe
	// index below it is done — the resume point of an index-addressable
	// streaming source.
	HighWater int64
	// Survivors is the session's current undetected-fault count, -1
	// until the session layer has reported one.
	Survivors int64
	// Elapsed is the stage's wall time so far.
	Elapsed time.Duration
	// FaultsPerSec is the stage throughput so far (presented faults).
	FaultsPerSec float64
	// ETA extrapolates the remaining stage time from the rate so far;
	// negative when unknown (no Total, or nothing done yet).
	ETA time.Duration
}

// Estimate computes throughput and remaining time from a done/total
// fault count and the elapsed wall time.  ETA is -1 when it cannot be
// known: nothing done yet, or no (exact) total.  Exposed for the
// resumable-source ETA tests and any custom progress renderer.
func Estimate(done, total int64, elapsed time.Duration) (faultsPerSec float64, eta time.Duration) {
	if elapsed > 0 && done > 0 {
		faultsPerSec = float64(done) / elapsed.Seconds()
	}
	if done <= 0 || total <= 0 {
		return faultsPerSec, -1
	}
	if done >= total {
		return faultsPerSec, 0
	}
	rem := float64(total-done) / float64(done)
	return faultsPerSec, time.Duration(rem * float64(elapsed))
}

// stageState is the progress baseline of the active stage.
type stageState struct {
	label      string
	total      int64
	start      time.Time
	baseFaults uint64
}

// OnProgress installs fn as the progress callback, invoked from worker
// flush paths at most once per every (every <= 0 emits on every
// flush — the tests' mode).  Install before attaching the registry.
func (r *Registry) OnProgress(every time.Duration, fn func(Progress)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.progressFn = fn
	r.everyNanos = int64(every)
	r.mu.Unlock()
	r.hasProgress.Store(fn != nil)
}

// BeginStage marks a new campaign stage as the progress scope: done
// counts restart from the current flush totals, the high-water mark
// resets, and total is the fault count the stage will present (<= 0
// when unknown).
func (r *Registry) BeginStage(label string, total int64) {
	if r == nil {
		return
	}
	st := &stageState{
		label:      label,
		total:      total,
		start:      r.now(),
		baseFaults: r.ctr[ctrFaults].Load(),
	}
	r.highWater.Store(0)
	r.stage.Store(st)
	r.lastEmit.Store(st.start.UnixNano())
}

// noteFlush is the emission gate, called by Flush: when a progress
// callback is installed and the cadence interval has passed, exactly
// one flusher wins the CAS and emits.
func (r *Registry) noteFlush() {
	if !r.hasProgress.Load() {
		return
	}
	now := r.now().UnixNano()
	last := r.lastEmit.Load()
	if now-last < r.everyNanos {
		return
	}
	if !r.lastEmit.CompareAndSwap(last, now) {
		return
	}
	r.emit()
}

// emit builds one Progress sample and delivers it.
func (r *Registry) emit() {
	st := r.stage.Load()
	if st == nil {
		return
	}
	r.mu.Lock()
	fn := r.progressFn
	r.mu.Unlock()
	if fn == nil {
		return
	}
	done := int64(r.ctr[ctrFaults].Load() - st.baseFaults)
	elapsed := r.now().Sub(st.start)
	fps, eta := Estimate(done, st.total, elapsed)
	fn(Progress{
		Stage:        st.label,
		Done:         done,
		Total:        st.total,
		HighWater:    r.highWater.Load(),
		Survivors:    r.survivors.Load(),
		Elapsed:      elapsed,
		FaultsPerSec: fps,
		ETA:          eta,
	})
}
