package telemetry

import (
	"sync/atomic"
	"time"
)

// Process counter indices: the totals of every flushed chunk, then the
// low-frequency events the engines report as they happen.
const (
	ctrFaults     = iota // verdicts delivered (presented faults)
	ctrReps              // faults actually simulated (post-collapse)
	ctrBatches           // replay passes
	ctrChunks            // streaming chunks completed
	ctrOps               // instructions the compiled kernels executed
	ctrKernel            // nanoseconds inside replay kernels
	ctrSinkWait          // nanoseconds the sinks spent blocked on their shared lock
	ctrSink              // nanoseconds inside the sink callbacks
	ctrSourceWait        // nanoseconds claiming chunks and generating their faults
	ctrCacheHits         // program-cache lookup hits
	ctrCacheMisses
	ctrArenaReuse // arena-pool checkouts served from the pool
	ctrArenaFresh // arena-pool checkouts that built a new arena
	ctrCollapseIn // faults entering structural collapsing
	ctrCollapseOut
	ctrCheckpointWrites // durable checkpoint files written
	ctrCheckpointNanos  // nanoseconds spent encoding + fsyncing them
	numCounters
)

// Local is a worker's count of its own work: one chunk's, or the sum
// over a stage.  It is plain data, added to with ordinary arithmetic.
// A streaming driver fills one per chunk, adds it to the worker's
// stage totals (which the driver returns with the stage), and flushes
// it into the attached registry, if any.
type Local struct {
	// Faults counts the verdicts delivered (presented faults), Reps the
	// faults simulated after collapsing, Batches the replay passes and
	// Chunks the chunks completed.
	Faults, Reps, Batches, Chunks uint64
	// Ops counts the instructions the compiled kernels executed (zero on
	// the other engines).  Stages report it (coverage.EngineStats); the
	// registry sums it into Snapshot but not into the /metrics document.
	Ops uint64
	// Kernel is the time inside the replay kernel, SinkWait the time
	// the sink was blocked on a lock it shares with the other workers'
	// sinks, Sink the rest of the time inside the sink, and SourceWait
	// the time claiming chunks and generating their surviving faults
	// (a claim is one atomic add, so this is generation alone).
	Kernel, SinkWait, Sink, SourceWait time.Duration
}

// Add adds c into l.
func (l *Local) Add(c Local) {
	l.Faults += c.Faults
	l.Reps += c.Reps
	l.Batches += c.Batches
	l.Chunks += c.Chunks
	l.Ops += c.Ops
	l.Kernel += c.Kernel
	l.SinkWait += c.SinkWait
	l.Sink += c.Sink
	l.SourceWait += c.SourceWait
}

// Registry is one instrumentation domain: the live process counters
// behind /metrics, and the progress callback behind -progress, which
// it paces.  All methods are safe for concurrent use and safe on a nil
// receiver (they become no-ops), so call sites can thread Active()
// through without guarding every call.
type Registry struct {
	ctr     [numCounters]atomic.Uint64
	workers atomic.Int64 // the largest worker pool any driver ran

	// now is the clock, injectable for cadence tests; fixed after
	// construction.
	now func() time.Time

	// progress is the installed callback and its cadence (nil when
	// none is), lastEmit the time of the last sample delivered.
	progress atomic.Pointer[progressSink]
	lastEmit atomic.Int64
}

// NewRegistry returns an empty registry using the real clock.
func NewRegistry() *Registry { return &Registry{now: time.Now} }

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

// Flush adds one chunk's counts to the process counters.  The worker
// that did the chunk calls it.
//
//faultsim:hotpath
func (r *Registry) Flush(c Local) {
	if r == nil {
		return
	}
	r.ctr[ctrFaults].Add(c.Faults)
	r.ctr[ctrReps].Add(c.Reps)
	r.ctr[ctrBatches].Add(c.Batches)
	r.ctr[ctrChunks].Add(c.Chunks)
	r.ctr[ctrOps].Add(c.Ops)
	r.ctr[ctrKernel].Add(uint64(c.Kernel))
	r.ctr[ctrSinkWait].Add(uint64(c.SinkWait))
	r.ctr[ctrSink].Add(uint64(c.Sink))
	r.ctr[ctrSourceWait].Add(uint64(c.SourceWait))
}

// ObserveWorkers records that a driver started a pool of n workers;
// the registry keeps the largest.
func (r *Registry) ObserveWorkers(n int) {
	if r == nil {
		return
	}
	raise(&r.workers, int64(n))
}

// CacheLookup records a program-cache lookup (sim.ProgramCache.Get).
func (r *Registry) CacheLookup(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.ctr[ctrCacheHits].Add(1)
	} else {
		r.ctr[ctrCacheMisses].Add(1)
	}
}

// ArenaGet records an arena-pool checkout (sim.ArenaPool.Get).
func (r *Registry) ArenaGet(reused bool) {
	if r == nil {
		return
	}
	if reused {
		r.ctr[ctrArenaReuse].Add(1)
	} else {
		r.ctr[ctrArenaFresh].Add(1)
	}
}

// CollapseDelta records one structural-collapse pass: in faults
// entered, out representatives survived (the compiled streaming driver
// calls it once per collapsed chunk).
func (r *Registry) CollapseDelta(in, out int) {
	if r == nil {
		return
	}
	r.ctr[ctrCollapseIn].Add(uint64(in))
	r.ctr[ctrCollapseOut].Add(uint64(out))
}

// CheckpointWrite records one durable checkpoint write and the time it
// took (encode + fsync + rename) — the cost side of the durability
// cadence, surfaced so a campaign can see when -checkpoint-every is
// set low enough to matter.
func (r *Registry) CheckpointWrite(d time.Duration) {
	if r == nil {
		return
	}
	r.ctr[ctrCheckpointWrites].Add(1)
	r.ctr[ctrCheckpointNanos].Add(uint64(d))
}

// raise lifts a to v unless it already holds at least v.
func raise(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is one read of a registry's process counters.
type Snapshot struct {
	// Local sums every flushed chunk.
	Local
	// Workers is the largest worker pool any driver ran.
	Workers int

	CacheHits, CacheMisses  uint64
	ArenaReuse, ArenaFresh  uint64
	CollapseIn, CollapseOut uint64
	CheckpointWrites        uint64
	CheckpointTime          time.Duration
}

// Snapshot reads the registry's counters.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	ns := func(i int) time.Duration { return time.Duration(r.ctr[i].Load()) }
	return Snapshot{
		Local: Local{
			Faults:     r.ctr[ctrFaults].Load(),
			Reps:       r.ctr[ctrReps].Load(),
			Batches:    r.ctr[ctrBatches].Load(),
			Chunks:     r.ctr[ctrChunks].Load(),
			Ops:        r.ctr[ctrOps].Load(),
			Kernel:     ns(ctrKernel),
			SinkWait:   ns(ctrSinkWait),
			Sink:       ns(ctrSink),
			SourceWait: ns(ctrSourceWait),
		},
		Workers:          int(r.workers.Load()),
		CacheHits:        r.ctr[ctrCacheHits].Load(),
		CacheMisses:      r.ctr[ctrCacheMisses].Load(),
		ArenaReuse:       r.ctr[ctrArenaReuse].Load(),
		ArenaFresh:       r.ctr[ctrArenaFresh].Load(),
		CollapseIn:       r.ctr[ctrCollapseIn].Load(),
		CollapseOut:      r.ctr[ctrCollapseOut].Load(),
		CheckpointWrites: r.ctr[ctrCheckpointWrites].Load(),
		CheckpointTime:   ns(ctrCheckpointNanos),
	}
}

// Metrics flattens the snapshot into expvar-style name → value pairs —
// the /metrics document of the debug endpoint.  Durations are reported
// in seconds.
func (s Snapshot) Metrics() map[string]float64 {
	return map[string]float64{
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
		"workers":              float64(s.Workers),
	}
}
