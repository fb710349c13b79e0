package telemetry

import "time"

// Progress is one live campaign-progress sample of one session's
// running stage, delivered through the OnProgress callback.  Done,
// HighWater and Survivors describe one cut of the session: everything
// below the completion frontier folded, nothing above it.
type Progress struct {
	// Stage labels the running stage (the runner name).
	Stage string
	// Done is the number of presented faults this run has folded in
	// this stage; Total the number the stage will present (<= 0 only
	// on a stage resumed midway, where it is unknown).
	Done, Total int64
	// HighWater is the stage's completion frontier: every universe
	// index below it is done — the stage's resume point.
	HighWater int64
	// Survivors is the session's undetected-fault count at the cut.
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
// known: nothing done yet, or no total.  Exposed for the
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

// progressSink is an installed progress callback and its cadence.
type progressSink struct {
	every time.Duration // between samples; <= 0 delivers every one
	fn    func(Progress)
}

// OnProgress installs fn as the progress callback (nil removes it),
// delivered at most one sample per every across the process (every <=
// 0 delivers each sample offered — the tests' mode).  A session offers
// its samples while it holds its fold's lock, so fn must return
// quickly and must not call back into the session.  Install before
// attaching the registry.
func (r *Registry) OnProgress(every time.Duration, fn func(Progress)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.progress.Store(nil)
		return
	}
	r.progress.Store(&progressSink{every: every, fn: fn})
}

// Report offers one progress sample of a stage that started at start.
// The session fills Stage, Done, Total, HighWater and Survivors from
// its own cut; Report paces the samples and fills Elapsed,
// FaultsPerSec and ETA from start with the registry's clock.  A stage
// reports nothing in its first interval, and the process gets at most
// one sample per interval: the first offered once the interval has
// passed, whichever session offers it.  With no callback installed it
// costs one atomic load.
func (r *Registry) Report(p Progress, start time.Time) {
	if r == nil {
		return
	}
	ps := r.progress.Load()
	if ps == nil {
		return
	}
	now := r.now()
	elapsed, t, last := now.Sub(start), now.UnixNano(), r.lastEmit.Load()
	if elapsed < ps.every || time.Duration(t-last) < ps.every || !r.lastEmit.CompareAndSwap(last, t) {
		return
	}
	p.Elapsed = elapsed
	p.FaultsPerSec, p.ETA = Estimate(p.Done, p.Total, elapsed)
	ps.fn(p)
}
