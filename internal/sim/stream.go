package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// This file is the campaign driver: the fault universe is generated
// from a fault.Source in fixed-size chunks instead of being taken as
// one slice, so a campaign's resident fault storage is O(chunk ×
// workers) — the universe size stops being a memory bound and becomes
// pure simulation time.  Each worker owns one reusable chunk buffer
// (plus, on the compiled path, its arena); it claims a chunk's index
// range with one atomic add, generates only the faults the drop filter
// leaves, outside any lock, replays them as program-width batches (64
// machines per lane word), and hands the per-chunk verdicts to its own
// sink, built once per worker by the caller's factory and called
// without a driver lock.
// Chunk completion order is scheduling-dependent, but every chunk is
// keyed by its universe index range, so a caller that folds chunks
// (package coverage's completion frontier) can order them on the
// [base, base+n) keys it is handed and observe deterministic results.

// BatchSize is the number of machines simulated per lane word — one
// per bit.  A replay pass simulates BatchSize machines per lane word
// of its program (Program.BatchFaults), i.e. 64 for the classic
// single-word configuration and 512 for wide-lane programs.
const BatchSize = 64

// Batchable reports whether every fault of the slice supports batch
// injection, i.e. whether the whole universe can take the bit-parallel
// path.
func Batchable(faults []fault.Fault) bool {
	for _, f := range faults {
		if _, ok := f.(fault.BatchInjector); !ok {
			return false
		}
	}
	return true
}

// DefaultChunk is the fault count claimed per chunk when the caller
// passes chunk <= 0: large enough to amortize the per-chunk costs
// (claim, sink call) over thousands of batches, small enough that a
// worker's resident faults stay ~100s of KB.
const DefaultChunk = 8192

// ChunkSink receives one completed chunk: the chunk claimed universe
// indices [base, base+n) of the source, and faults[i] (universe
// fault idx[i]) got verdict detected[i].  Chunks whose faults were all
// drop-filtered are still delivered (with empty slices), so the sinks
// together observe every claimed index range exactly once — the
// invariant checkpoint cuts are built on.  Every driver takes a
// per-worker factory: worker w calls the sink the factory built for it
// with no driver lock held, and reuses the slices for its next chunk,
// so sinks must not retain them.  A sink returns how long it was
// blocked on a lock shared with other workers' sinks (zero when it
// shares none); telemetry reports that as the worker's sink-wait time.
type ChunkSink func(base, n int, idx []int, faults []fault.Fault, detected []bool) (blocked time.Duration)

// StreamConfig parameterizes one streaming shard run.
type StreamConfig struct {
	// Chunk is the faults per claim (<= 0 selects DefaultChunk).
	Chunk int
	// Workers caps the worker goroutines (<= 0 selects GOMAXPROCS).
	Workers int
	// Drop skips faults whose universe index is set (nil keeps
	// everything) — the survivor filter of cross-test fault dropping.
	// Dropped faults are never generated.
	Drop *fault.BitSet
	// Base is the first universe index claimed: the run covers
	// [Base, src.Count()).  A partition starts at its range's low end,
	// and a checkpoint resume at the completed prefix's end.
	Base int
	// Arenas optionally pools the per-worker arenas
	// (ShardsCompiledStream only; nil builds fresh ones).
	Arenas *ArenaPool
}

func (c StreamConfig) chunkSize() int {
	if c.Chunk <= 0 {
		return DefaultChunk
	}
	return c.Chunk
}

func (c StreamConfig) workerCount() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// StreamShard drives a streaming campaign over a generic replay
// function: workers claim chunks of src, generate the faults cfg.Drop
// leaves, replay them in 64-fault batches through their private
// replay function (det[0] receives the batch's detection mask), and
// deliver verdicts to the sink sinkFor built for them.  It returns one
// telemetry.Local per worker, that worker's totals over the run: its
// length is the worker count, and the sum of its Reps the faults
// simulated (after drop filtering; collapsing on the compiled driver
// reduces it further).
//
// Cancellation is cooperative at batch granularity: ctx is checked on
// every chunk claim and between the chunk's batches, an interrupted
// chunk is abandoned without reaching the sink (the sink only ever
// sees complete chunks), workers drain, and the error is ctx.Err().
func StreamShard(ctx context.Context, src fault.Source, cfg StreamConfig,
	newWorker func() (replay func(batch []fault.Fault, det []uint64) error, done func()),
	sinkFor func(worker int) ChunkSink) ([]telemetry.Local, error) {
	return streamShard(ctx, src, cfg, nil, BatchSize, func() (replayFunc, func()) {
		replay, done := newWorker()
		return func(batch []fault.Fault, det []uint64) (uint64, error) { return 0, replay(batch, det) }, done
	}, sinkFor)
}

// replayFunc replays one batch into det and returns the instructions
// it executed (compiled driver only; zero otherwise).
type replayFunc func(batch []fault.Fault, det []uint64) (ops uint64, err error)

// ShardsStream replays a recorded trace over a streaming universe with
// the per-batch interpreter (ReplayBatch), which rebuilds the machine
// array for every batch — the bit-parallel reference path beside the
// compiled driver.
func ShardsStream(ctx context.Context, tr *Trace, src fault.Source, cfg StreamConfig, sinkFor func(worker int) ChunkSink) ([]telemetry.Local, error) {
	return streamShard(ctx, src, cfg, nil, BatchSize, func() (replayFunc, func()) {
		return func(batch []fault.Fault, det []uint64) (uint64, error) {
			mask, err := ReplayBatch(tr, batch)
			det[0] = mask
			return 0, err
		}, nil
	}, sinkFor)
}

// ShardsCompiledStream replays a compiled program over a streaming
// universe: one arena per worker, reused across every batch of every
// chunk (optionally drawn from cfg.Arenas).  Each chunk is structurally
// collapsed against the program's trace summary by the worker's own
// fault.Collapser, and the representative verdicts expanded back
// chunk-locally, so collapsing never needs the whole universe in
// memory either; a chunk in which nothing merges replays as generated.
// Each worker's Ops total is the instructions its passes executed.
func ShardsCompiledStream(ctx context.Context, p *Program, src fault.Source, cfg StreamConfig, sinkFor func(worker int) ChunkSink) ([]telemetry.Local, error) {
	sum := p.Summary()
	arenas := cfg.Arenas
	return streamShard(ctx, src, cfg, &sum, p.BatchFaults(), func() (replayFunc, func()) {
		a := arenas.Get(p)
		return func(batch []fault.Fault, det []uint64) (uint64, error) {
			err := p.ReplayInto(a, batch, det)
			return a.executed, err
		}, func() { arenas.Put(a) }
	}, sinkFor)
}

// streamShard is the shared driver; sum non-nil enables per-chunk
// structural collapsing; batchFaults is the machines per replay pass
// (the replay function's det buffer gets one word per 64).  sinkFor
// builds worker w's sink once at worker startup.
//
//faultsim:hotpath
func streamShard(ctx context.Context, src fault.Source, cfg StreamConfig, sum *fault.TraceSummary, batchFaults int,
	newWorker func() (replayFunc, func()),
	sinkFor func(worker int) ChunkSink) ([]telemetry.Local, error) {
	chunk := cfg.chunkSize()
	workers := cfg.workerCount()
	drop := cfg.Drop
	ctxDone := ctx.Done()
	end, _ := src.Count()
	var (
		next atomic.Int64 // the lowest unclaimed universe index
		stop atomic.Bool
	)
	next.Store(int64(cfg.Base))
	errs := make([]error, workers)             //faultsim:alloc-ok one slot per worker at startup
	totals := make([]telemetry.Local, workers) //faultsim:alloc-ok one slot per worker at startup
	reg := telemetry.Active()
	reg.ObserveWorkers(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //faultsim:alloc-ok worker startup: one goroutine and closure per worker
			defer wg.Done() //faultsim:alloc-ok worker-lifetime defer
			sink := sinkFor(w)
			replay, done := newWorker()
			if done != nil {
				defer done() //faultsim:alloc-ok worker-lifetime defer
			}
			buf := make([]fault.Fault, chunk)             //faultsim:alloc-ok per-worker chunk buffer, reused for every chunk
			idx := make([]int, chunk)                     //faultsim:alloc-ok per-worker chunk buffer, reused for every chunk
			det := make([]bool, chunk)                    //faultsim:alloc-ok per-worker chunk buffer, reused for every chunk
			repDet := make([]bool, chunk)                 //faultsim:alloc-ok per-worker chunk buffer, reused for every chunk
			mask := make([]uint64, batchFaults/BatchSize) //faultsim:alloc-ok per-worker detection mask, reused for every batch
			var collapser fault.Collapser                 // per-worker class state, reused for every chunk
			// Accounting: c counts the chunk in flight and tot the
			// worker's totals, which the driver returns.  The claim with
			// its generation, the replay and the sink are timed
			// separately, and the sink reports its lock wait, so a stage
			// can see exactly where each worker's wall time went.
			var tot, c telemetry.Local
		chunks:
			for !stop.Load() {
				// Cooperative cancellation, checked once per chunk claim: an
				// in-flight chunk is abandoned before its sink delivery, so
				// the universe prefix the sink has seen stays consistent.
				select {
				case <-ctxDone:
					break chunks
				default:
				}
				t0 := time.Now()
				b := int(next.Add(int64(chunk))) - chunk
				if b >= end {
					c.SourceWait = time.Since(t0)
					break
				}
				n := min(chunk, end-b)
				// Generate the claim's survivors, one run of indices the
				// drop filter leaves clear at a time.
				faults, ids := buf[:0], idx[:0]
				for i := b; ; {
					lo, hi := drop.ClearRun(i, b+n)
					if lo == hi {
						break
					}
					k := len(faults)
					faults = faults[:k+hi-lo]
					src.Fill(faults[k:], lo)
					for u := lo; u < hi; u++ {
						ids = append(ids, u)
					}
					i = hi
				}
				c.SourceWait = time.Since(t0)
				// Per-chunk collapsing: equivalence classes are computed
				// among the chunk's survivors only and expanded back before
				// the chunk leaves the worker.  col is nil when nothing
				// merged, and the chunk replays as generated.
				r := faults
				var col *fault.Collapsed
				if sum != nil {
					if col = collapser.Collapse(faults, sum); col != nil {
						r = col.Reps
					}
					reg.CollapseDelta(len(faults), len(r))
				}
				rd := repDet[:len(r)]
				var ops uint64
				t0 = time.Now()
				for lo := 0; lo < len(r); lo += batchFaults {
					select {
					case <-ctxDone:
						// Abandon the chunk mid-replay: none of its verdicts
						// reach the sink, so cancellation costs at most one
						// batch of latency and never a torn chunk.
						break chunks
					default:
					}
					hi := lo + batchFaults
					if hi > len(r) {
						hi = len(r)
					}
					executed, err := replay(r[lo:hi], mask)
					if err != nil {
						errs[w] = err
						stop.Store(true)
						break chunks
					}
					ops += executed
					for i := lo; i < hi; i++ {
						j := i - lo
						rd[i] = mask[j>>6]>>(uint(j)&63)&1 == 1
					}
				}
				c.Kernel = time.Since(t0)
				c.Batches = uint64((len(r) + batchFaults - 1) / batchFaults)
				c.Ops = ops
				c.Reps = uint64(len(r))
				d := rd
				if col != nil {
					d = det[:len(faults)]
					col.ExpandInto(d, rd)
				}
				t0 = time.Now()
				blocked := sink(b, n, ids, faults, d)
				c.SinkWait = blocked
				c.Sink = time.Since(t0) - blocked
				c.Chunks = 1
				c.Faults = uint64(len(faults))
				tot.Add(c)
				reg.Flush(c)
				c = telemetry.Local{}
			}
			// The claim the worker stopped at, if any, still spent its
			// source wait.
			tot.Add(c)
			reg.Flush(c)
			totals[w] = tot
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return totals, err
		}
	}
	return totals, ctx.Err()
}
