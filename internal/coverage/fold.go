// The completion-frontier fold: the one path by which chunk verdicts
// reach a session's state.  It must be deterministic — sessions are
// byte-compared against the oracle and against interrupted-then-resumed
// runs whatever the chunk scheduling.
//
//faultsim:deterministic

package coverage

import (
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file is the session executor's one chunk-sink discipline, used
// by every stage on every engine.  Chunks complete in scheduling
// order, not universe order, while the session state must always be a
// prefix-closed cut: every universe index below the frontier accounted
// for, none at or above it.  Each worker therefore reduces its chunk
// to a chunkSummary without a lock — per-class presented, detected and
// first-detected counts plus the chunk's detection bits — and the fold
// applies the summaries in universe order under one mutex, parking
// those that arrive ahead of the frontier until the gap below them
// closes.  Whatever reads the session mid-stage reads that cut: a
// checkpoint serializes it, and each progress sample is built from it.
//
// First detections are judged against cum, the completed stages'
// detections, which nothing writes while a stage runs: the stage's own
// detections collect in stageDet and join cum when the stage ends, so
// workers read cum without the lock, and cum doubles as the stage's
// drop filter.  Both are exact because the drivers present each
// universe index at most once per stage.

// classCount is one fault class's share of a chunk.
type classCount struct{ presented, detected, first int }

// chunkSummary is one chunk reduced by its worker: universe indices
// [base, base+n), per-class counts indexed by fault.Class, and the
// chunk's detections as bitmap words from word index lo on.
type chunkSummary struct {
	base, n int
	byClass []classCount
	lo      int
	bits    []uint64
}

// reduce summarizes one delivered chunk (the sim.ChunkSink arguments);
// cum holds the detections of the stages before this one.
func (s *chunkSummary) reduce(base, n int, idx []int, faults []fault.Fault, det []bool, cum *fault.BitSet) {
	s.base, s.n, s.lo = base, n, base>>6
	clear(s.byClass)
	words := (base+n+63)>>6 - s.lo
	if cap(s.bits) < words {
		s.bits = make([]uint64, words)
	}
	s.bits = s.bits[:words]
	clear(s.bits)
	for i, f := range faults {
		cc := &s.byClass[f.Class()]
		cc.presented++
		if det[i] {
			cc.detected++
			u := idx[i]
			if !cum.Get(u) {
				cc.first++
			}
			s.bits[u>>6-s.lo] |= 1 << (uint(u) & 63)
		}
	}
}

// fold is one session's accumulators and the frontier fold that
// writes them.  Between stages only the executor touches it; while a
// stage runs the chunk sinks write it under mu.
type fold struct {
	// Session state: cum holds the completed stages' detections,
	// detected counts the universe faults some stage has detected (cum
	// plus the running stage's first detections), and universe tallies
	// per class the enumerated universe (Total) and its detected faults
	// (Detected).
	cum      *fault.BitSet
	detected int
	universe []ClassStat

	// The running stage: every chunk below frontier is folded into
	// stage (per class: presented, detected) and stageDet.  enumerate
	// marks the session's first executed stage, whose presented faults
	// are the universe.  parked holds summaries ahead of the frontier,
	// spare the summaries free for reuse.
	mu        sync.Mutex
	frontier  int
	stage     []ClassStat
	stageDet  *fault.BitSet
	enumerate bool
	parked    map[int]*chunkSummary
	spare     []*chunkSummary

	// Readers of the cut, called under mu whenever the frontier
	// advances: the telemetry registry (nil when detached), offered a
	// progress sample, and the checkpoint cadence (nil without
	// checkpointing).  A sample names the running stage (label, which
	// began at start and will present total faults, <= 0 when resumed
	// midway), counts the faults it presented less a resumed stage's
	// restored prefix, and the survivors out of the session's count
	// universe faults.
	reg        *telemetry.Registry
	count      int
	label      string
	total      int
	restored   int
	start      time.Time
	checkpoint func(frontier int)
}

func newFold(capacity, count int, reg *telemetry.Registry) *fold {
	nc := len(fault.Classes())
	return &fold{
		cum:      fault.NewBitSet(capacity),
		universe: make([]ClassStat, nc),
		stage:    make([]ClassStat, nc),
		parked:   make(map[int]*chunkSummary),
		reg:      reg,
		count:    count,
	}
}

// beginStage starts the stage label, which will present total faults
// (<= 0 when resumed midway), at universe index base, holding tallies
// already (a resumed stage's; nil for a fresh one).
func (f *fold) beginStage(label string, total, base int, enumerate bool, tallies []ClassStat) {
	f.frontier = base
	f.enumerate = enumerate
	clear(f.stage)
	copy(f.stage, tallies)
	f.stageDet = fault.NewBitSet(0)
	f.label, f.total = label, total
	f.restored, _ = totals(tallies)
	f.start = time.Now() //faultsim:ordered progress telemetry, never reaches results
}

// endStage closes the running stage after its workers drained: its
// detections join cum, and summaries still parked past a gap (an
// interrupted stage's) are dropped with the unfolded tail.
func (f *fold) endStage() {
	f.cum.Or(f.stageDet)
	f.stageDet = nil
	clear(f.parked)
}

// bits returns the cut's cumulative detection bitmap: cum plus the
// running stage's folded detections.
func (f *fold) bits() []uint64 {
	b := f.cum.Clone()
	b.Or(f.stageDet)
	return b.Words()
}

// sinkFor is the drivers' per-worker sink factory: the worker reduces
// each chunk into its own summary, then hands it to the fold under
// the lock — the time spent acquiring it is the worker's sink wait.
func (f *fold) sinkFor(int) sim.ChunkSink {
	cur := &chunkSummary{byClass: make([]classCount, len(f.stage))}
	return func(base, n int, idx []int, faults []fault.Fault, det []bool) time.Duration {
		cur.reduce(base, n, idx, faults, det, f.cum)
		t0 := time.Now() //faultsim:ordered lock-wait telemetry, never reaches results
		f.mu.Lock()
		blocked := time.Since(t0) //faultsim:ordered lock-wait telemetry, never reaches results
		cur = f.deliver(cur)
		f.mu.Unlock()
		return blocked
	}
}

// deliver folds s if it starts at the frontier, then every parked
// summary that unblocks; otherwise it parks s.  It returns a summary
// the delivering worker may overwrite.  Called with mu held.
func (f *fold) deliver(s *chunkSummary) *chunkSummary {
	if s.base != f.frontier {
		f.parked[s.base] = s
		if n := len(f.spare); n > 0 {
			s, f.spare = f.spare[n-1], f.spare[:n-1]
			return s
		}
		return &chunkSummary{byClass: make([]classCount, len(f.stage))}
	}
	f.apply(s)
	for {
		p, ok := f.parked[f.frontier]
		if !ok {
			break
		}
		delete(f.parked, f.frontier)
		f.apply(p)
		f.spare = append(f.spare, p)
	}
	if f.reg != nil {
		f.report()
	}
	if f.checkpoint != nil {
		f.checkpoint(f.frontier)
	}
	return s
}

// report offers the registry a progress sample of the cut.  Called
// with mu held, so one session's samples never go backwards.
func (f *fold) report() {
	presented, _ := totals(f.stage)
	f.reg.Report(telemetry.Progress{
		Stage:     f.label,
		Done:      int64(presented - f.restored),
		Total:     int64(f.total),
		HighWater: int64(f.frontier),
		Survivors: int64(f.count - f.detected),
	}, f.start)
}

// apply folds one summary at the frontier.
func (f *fold) apply(s *chunkSummary) {
	for c, cc := range s.byClass {
		f.stage[c].Total += cc.presented
		f.stage[c].Detected += cc.detected
		if f.enumerate {
			f.universe[c].Total += cc.presented
		}
		f.universe[c].Detected += cc.first
		f.detected += cc.first
	}
	f.stageDet.OrWords(s.lo, s.bits)
	f.frontier += s.n
}

// verdicts rebuilds a stage's verdict vector over universe indices
// [0, n) from its detection bitmap and its drop filter (nil when the
// stage dropped nothing).
func verdicts(det, drop *fault.BitSet, n int) []Verdict {
	vec := make([]Verdict, n)
	for u := range vec {
		switch {
		case det.Get(u):
			vec[u] = VerdictDetected
		case drop != nil && drop.Get(u):
			vec[u] = VerdictDropped
		}
	}
	return vec
}

// classMap converts a class-indexed tally to a Result's ByClass map,
// which holds the classes with faults.
func classMap(t []ClassStat) map[fault.Class]ClassStat {
	m := make(map[fault.Class]ClassStat)
	for c, cs := range t {
		if cs.Total > 0 {
			m[fault.Class(c)] = cs
		}
	}
	return m
}

// totals sums a class-indexed tally.
func totals(t []ClassStat) (total, detected int) {
	for _, cs := range t {
		total += cs.Total
		detected += cs.Detected
	}
	return total, detected
}
