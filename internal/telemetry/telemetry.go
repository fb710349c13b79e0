package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Per-worker counter indices.  The set is sized so one Worker slot is
// exactly one cache line of atomics (8 × 8 bytes) plus a line of
// padding.
const (
	ctrFaults     = iota // verdicts delivered (presented faults)
	ctrReps              // faults actually simulated (post-collapse)
	ctrBatches           // 64-machine replay batches
	ctrChunks            // streaming chunks completed
	ctrKernel            // nanoseconds inside replay kernels
	ctrSinkWait          // nanoseconds the sink spent blocked on its shared lock
	ctrSink              // nanoseconds inside the sink callback
	ctrSourceWait        // nanoseconds claiming chunks from the source
	numCounters
)

// Global (non-per-worker) counter indices: low-frequency events where
// one shared atomic is cheaper than a slot lookup.
const (
	gCacheHits = iota // program-cache lookup hits
	gCacheMisses
	gArenaReuse // arena-pool checkouts served from the pool
	gArenaFresh // arena-pool checkouts that built a new arena
	gCollapseIn // faults entering structural collapsing
	gCollapseOut
	gCheckpointWrites // durable checkpoint files written
	gCheckpointNanos  // nanoseconds spent encoding + fsyncing them
	numGlobals
)

// Local is one worker's private counter accumulation.  It is plain
// data: the worker increments it with ordinary arithmetic on the hot
// path and flushes it into its padded Registry slot once per batch or
// chunk (Registry.Flush), which zeroes it again.
type Local struct {
	Faults, Reps, Batches, Chunks                          uint64
	KernelNanos, SinkWaitNanos, SinkNanos, SourceWaitNanos uint64
}

// Worker is one worker's flush target: a cache-line-padded block of
// atomic counters.  Only the owning worker adds to it; any goroutine
// may read it through Registry.Snapshot.
type Worker struct {
	vals [numCounters]atomic.Uint64
	_    [64]byte // keep neighbouring slots off this line
}

// Registry is one instrumentation domain: per-worker flush slots,
// global event counters, and the progress/stage reporting state.  All
// methods are safe for concurrent use and safe on a nil receiver (they
// become no-ops), so call sites can thread Active() through without
// guarding every call.
type Registry struct {
	mu      sync.Mutex
	workers []*Worker

	globals [numGlobals]atomic.Uint64

	// now is the clock, injectable for cadence tests; fixed after
	// construction.
	now func() time.Time

	// Progress state: the currently active stage, the survivor count
	// reported by the session layer (-1 until known), the universe-index
	// high-water mark of the active stage, and the rate-limited
	// callback.
	stage       atomic.Pointer[stageState]
	survivors   atomic.Int64
	highWater   atomic.Int64
	hasProgress atomic.Bool
	everyNanos  int64
	lastEmit    atomic.Int64
	progressFn  func(Progress)
	stageFn     func(StageReport)
}

// NewRegistry returns an empty registry using the real clock.
func NewRegistry() *Registry {
	r := &Registry{now: time.Now}
	r.survivors.Store(-1)
	return r
}

// SetClock replaces the registry's clock — cadence tests inject a fake
// one.  Must be called before the registry is shared.
func (r *Registry) SetClock(now func() time.Time) { r.now = now }

// active is the process-wide registry consulted by the instrumented
// engines; nil means instrumentation is detached and near-free.
var active atomic.Pointer[Registry]

// SetActive attaches r as the process-wide registry (nil detaches).
func SetActive(r *Registry) { active.Store(r) }

// Active returns the attached registry, or nil.  Hot paths load it
// once per shard run and branch on the nil.
func Active() *Registry { return active.Load() }

// Worker returns the flush slot for worker index i, growing the slot
// table as needed.  Slots are identified by index so per-stage
// snapshot deltas line up worker for worker; concurrent campaigns
// sharing one registry share slots, which keeps aggregate totals exact
// and blurs only the per-worker attribution.
func (r *Registry) Worker(i int) *Worker {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.workers) <= i {
		r.workers = append(r.workers, &Worker{})
	}
	return r.workers[i]
}

// Flush adds l into w's slot and zeroes l.  Called once per batch or
// chunk by the owning worker; it also drives the rate-limited progress
// emission.
func (r *Registry) Flush(w *Worker, l *Local) {
	if r == nil || w == nil {
		return
	}
	add := func(c int, v uint64) {
		if v != 0 {
			w.vals[c].Add(v)
		}
	}
	add(ctrFaults, l.Faults)
	add(ctrReps, l.Reps)
	add(ctrBatches, l.Batches)
	add(ctrChunks, l.Chunks)
	add(ctrKernel, l.KernelNanos)
	add(ctrSinkWait, l.SinkWaitNanos)
	add(ctrSink, l.SinkNanos)
	add(ctrSourceWait, l.SourceWaitNanos)
	*l = Local{}
	r.noteFlush()
}

// CacheLookup records a program-cache lookup (sim.ProgramCache.Get).
func (r *Registry) CacheLookup(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.globals[gCacheHits].Add(1)
	} else {
		r.globals[gCacheMisses].Add(1)
	}
}

// ArenaGet records an arena-pool checkout (sim.ArenaPool.Get).
func (r *Registry) ArenaGet(reused bool) {
	if r == nil {
		return
	}
	if reused {
		r.globals[gArenaReuse].Add(1)
	} else {
		r.globals[gArenaFresh].Add(1)
	}
}

// CollapseDelta records one structural-collapse pass: in faults
// entered, out representatives survived (fault.Collapser.Collapse).
func (r *Registry) CollapseDelta(in, out int) {
	if r == nil {
		return
	}
	r.globals[gCollapseIn].Add(uint64(in))
	r.globals[gCollapseOut].Add(uint64(out))
}

// CheckpointWrite records one durable checkpoint write and the time it
// took (encode + fsync + rename) — the cost side of the durability
// cadence, surfaced so a campaign can see when -checkpoint-every is
// set low enough to matter.
func (r *Registry) CheckpointWrite(d time.Duration) {
	if r == nil {
		return
	}
	r.globals[gCheckpointWrites].Add(1)
	r.globals[gCheckpointNanos].Add(uint64(d))
}

// ObserveIndex raises the active stage's universe-index high-water
// mark.  The coverage executor reports its completion frontier here:
// every index below it is done, so it is the resume point of an
// index-addressable streaming source.
func (r *Registry) ObserveIndex(idx int64) {
	if r == nil {
		return
	}
	for {
		cur := r.highWater.Load()
		if idx <= cur || r.highWater.CompareAndSwap(cur, idx) {
			return
		}
	}
}

// ReportSurvivors publishes the session's current survivor count (the
// universe faults no stage has detected yet).
func (r *Registry) ReportSurvivors(n int64) {
	if r == nil {
		return
	}
	r.survivors.Store(n)
}

// WorkerSnapshot is one flush slot's totals, nanoseconds resolved to
// durations.
type WorkerSnapshot struct {
	Faults, Reps, Batches, Chunks      uint64
	Kernel, SinkWait, Sink, SourceWait time.Duration
}

// Snapshot is one aggregated view of a registry: per-worker rows plus
// their sums and the global event counters.  Snapshots are values;
// Sub diffs two of them for per-stage deltas.
type Snapshot struct {
	Faults, Reps, Batches, Chunks      uint64
	Kernel, SinkWait, Sink, SourceWait time.Duration
	Workers                            []WorkerSnapshot

	CacheHits, CacheMisses  uint64
	ArenaReuse, ArenaFresh  uint64
	CollapseIn, CollapseOut uint64
	CheckpointWrites        uint64
	CheckpointTime          time.Duration
}

// Snapshot aggregates the registry's counters.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	workers := r.workers
	r.mu.Unlock()
	s.Workers = make([]WorkerSnapshot, len(workers))
	for i, w := range workers {
		ws := WorkerSnapshot{
			Faults:     w.vals[ctrFaults].Load(),
			Reps:       w.vals[ctrReps].Load(),
			Batches:    w.vals[ctrBatches].Load(),
			Chunks:     w.vals[ctrChunks].Load(),
			Kernel:     time.Duration(w.vals[ctrKernel].Load()),
			SinkWait:   time.Duration(w.vals[ctrSinkWait].Load()),
			Sink:       time.Duration(w.vals[ctrSink].Load()),
			SourceWait: time.Duration(w.vals[ctrSourceWait].Load()),
		}
		s.Workers[i] = ws
		s.Faults += ws.Faults
		s.Reps += ws.Reps
		s.Batches += ws.Batches
		s.Chunks += ws.Chunks
		s.Kernel += ws.Kernel
		s.SinkWait += ws.SinkWait
		s.Sink += ws.Sink
		s.SourceWait += ws.SourceWait
	}
	s.CacheHits = r.globals[gCacheHits].Load()
	s.CacheMisses = r.globals[gCacheMisses].Load()
	s.ArenaReuse = r.globals[gArenaReuse].Load()
	s.ArenaFresh = r.globals[gArenaFresh].Load()
	s.CollapseIn = r.globals[gCollapseIn].Load()
	s.CollapseOut = r.globals[gCollapseOut].Load()
	s.CheckpointWrites = r.globals[gCheckpointWrites].Load()
	s.CheckpointTime = time.Duration(r.globals[gCheckpointNanos].Load())
	return s
}

// Sub returns the counter deltas s − prev, worker rows aligned by
// index (rows prev lacks are taken whole).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Faults:      s.Faults - prev.Faults,
		Reps:        s.Reps - prev.Reps,
		Batches:     s.Batches - prev.Batches,
		Chunks:      s.Chunks - prev.Chunks,
		Kernel:      s.Kernel - prev.Kernel,
		SinkWait:    s.SinkWait - prev.SinkWait,
		Sink:        s.Sink - prev.Sink,
		SourceWait:  s.SourceWait - prev.SourceWait,
		CacheHits:   s.CacheHits - prev.CacheHits,
		CacheMisses: s.CacheMisses - prev.CacheMisses,
		ArenaReuse:  s.ArenaReuse - prev.ArenaReuse,
		ArenaFresh:  s.ArenaFresh - prev.ArenaFresh,
		CollapseIn:  s.CollapseIn - prev.CollapseIn,
		CollapseOut: s.CollapseOut - prev.CollapseOut,

		CheckpointWrites: s.CheckpointWrites - prev.CheckpointWrites,
		CheckpointTime:   s.CheckpointTime - prev.CheckpointTime,
	}
	d.Workers = make([]WorkerSnapshot, len(s.Workers))
	for i, w := range s.Workers {
		if i < len(prev.Workers) {
			p := prev.Workers[i]
			w.Faults -= p.Faults
			w.Reps -= p.Reps
			w.Batches -= p.Batches
			w.Chunks -= p.Chunks
			w.Kernel -= p.Kernel
			w.SinkWait -= p.SinkWait
			w.Sink -= p.Sink
			w.SourceWait -= p.SourceWait
		}
		d.Workers[i] = w
	}
	return d
}

// CollapseRatio returns simulated representatives per presented fault
// (1 when no collapse passes were recorded).
func (s Snapshot) CollapseRatio() float64 {
	if s.CollapseIn == 0 {
		return 1
	}
	return float64(s.CollapseOut) / float64(s.CollapseIn)
}

// Metrics flattens the snapshot into expvar-style name → value pairs —
// the /metrics document of the debug endpoint.  Durations are reported
// in seconds.
func (s Snapshot) Metrics() map[string]float64 {
	m := map[string]float64{
		"faults_presented":     float64(s.Faults),
		"faults_simulated":     float64(s.Reps),
		"batches":              float64(s.Batches),
		"chunks":               float64(s.Chunks),
		"kernel_seconds":       s.Kernel.Seconds(),
		"sink_wait_seconds":    s.SinkWait.Seconds(),
		"sink_seconds":         s.Sink.Seconds(),
		"source_wait_seconds":  s.SourceWait.Seconds(),
		"program_cache_hits":   float64(s.CacheHits),
		"program_cache_misses": float64(s.CacheMisses),
		"arena_reuse":          float64(s.ArenaReuse),
		"arena_fresh":          float64(s.ArenaFresh),
		"collapse_in":          float64(s.CollapseIn),
		"collapse_out":         float64(s.CollapseOut),
		"checkpoint_writes":    float64(s.CheckpointWrites),
		"checkpoint_seconds":   s.CheckpointTime.Seconds(),
		"workers":              float64(len(s.Workers)),
	}
	return m
}
