// Package sim is the bit-parallel fault-simulation engine behind the
// coverage campaigns: a PPSFP-style simulator that packs 64 faulty
// machines into every uint64 word and replays a recorded test trace
// over all of them at once, instead of re-executing the full test
// algorithm once per injected fault.
//
// The pipeline has three stages:
//
//  1. Trace recording (Recorder, Record): the test algorithm runs once
//     on an instrumented fault-free memory and its operation stream is
//     captured — (op, addr, data) plus three annotations supplied by
//     the executors via ram.TraceAnnotator: which reads the algorithm
//     compares against fault-free expectations ("checked" reads), how
//     recurrence writes derive from preceding reads (the π-test's
//     GF(2)-affine map, so replay preserves error propagation through
//     the walking automaton), and which reads fold into a signature
//     observer (a MISR/SISR's GF(2)-linear accumulator, with compare
//     points where the algorithm tests the register against its
//     prediction).
//
//  2. Bit-sliced replay (Array, ReplayBatch): each cell-bit of the
//     memory becomes a uint64 lane word holding that bit's value
//     across 64 simultaneously simulated machines.  Faults are
//     installed through fault.BatchInjector, the one injection
//     interface, as per-machine masked hooks, drawn from the array's
//     fault.Pool, that reproduce the Inject decorator wrappers
//     exactly.  A machine is detected as soon as one of its
//     checked reads diverges from the recorded clean value, or an
//     observer compare point finds its accumulated signature
//     difference nonzero — the same criteria the oracle's comparators
//     apply, since every expected value (and predicted signature) a
//     well-formed algorithm checks equals the clean-run value.
//     Because the fold is affine, the faulty-minus-clean accumulator
//     difference evolves linearly in the read differences, so replay
//     reproduces MISR aliasing bit-exactly: multi-error patterns that
//     cancel in the register stay undetected, as in hardware.  A batch
//     finishes early once all of its machines have detected.
//
//  3. Streamed campaigns (ShardsStream): workers claim the fault
//     universe of a fault.Source in chunks, replay each chunk as
//     64-machine batches and hand its verdicts, keyed by universe
//     index, to a sink, so results are deterministic regardless of
//     worker count (stream.go, below).
//
// On top of the per-batch interpreter sits the compiled pipeline, the
// production fast path:
//
//   - Compile lowers the trace once per campaign into a flat
//     instruction stream with pre-resolved lane offsets, broadcast-
//     expanded clean values, flattened affine terms, fold/observe side
//     tables with deduplicated GF(2) matrices, and the suffix after
//     the last detection point trimmed (nothing past the final
//     comparison can affect detection).  Width-1 traces additionally
//     pack each op into a single uint32.
//
//   - Arena is a worker's reusable machine-array state: lane buffer,
//     hook storage sized by one batch (a node list chained from int32
//     heads, with a one-byte per-cell flag map the kernels test),
//     history ring, observer accumulators, scratch, and a fault.Pool
//     recycling hook objects.  Every hook is installed and invoked
//     through the 64-lane view of its lane group, and the kernels
//     reach hooks only through senseHooked and storeHooked, so
//     arena.go alone decides how hooks are stored.  Between batches
//     the arena restores only the cells the previous batch dirtied (or
//     wholesale for dense traces), so steady-state batches allocate
//     nothing.
//
//   - ReplayInto dispatches to a width-1 kernel (no per-bit inner
//     loops; the regime of the paper's Fig. 1a bit-oriented memories
//     and the largest campaigns) or the generic word-oriented kernel,
//     each in a 64-machine and a 512-machine form.  Every kernel has one read
//     path and one write path: a fused read-check-write compares on
//     the read path, then stores on the write path that literal and
//     affine writes take.
//
//   - ShardsCompiledStream drives the batches with one arena per
//     worker and a shared stop flag so a failing batch short-circuits
//     the rest.
//
// The compiled driver collapses each chunk into exact equivalence
// classes (a fault.Collapser per worker, fed by Program.Summary) and
// simulates one representative per class; it expands the results back
// so every experiment table is unchanged.  Only faults a collapse rule
// can merge are keyed, and a chunk in which nothing merges replays as
// generated, so collapsing costs little where it saves nothing.
//
// Three capabilities serve the campaign *session* layer (package
// coverage's planner/executor, which runs several tests over one
// universe with cross-test fault dropping):
//
//   - survivor filtering: StreamConfig.Drop skips every universe index
//     an earlier test already detected, so the survivors of test k are
//     the only faults replayed against test k+1 — no fault-slice
//     copying;
//
//   - a compiled-program cache (ProgramCache) keyed by (runner
//     identity, memory geometry, initial-image hash), so repeated
//     sweeps record and compile each trace once; programs are
//     immutable after compilation and shared freely across campaigns;
//
//   - arena reuse across programs: Arena.Retarget rebinds a worker's
//     arena to a different program (any width, size, observer or
//     history shape) with a full state reset, and ArenaPool recycles
//     arenas between a session's stages.
//
// The drivers live in stream.go: ShardsStream / ShardsCompiledStream
// generate the fault universe of a fault.Source in chunks of at most
// StreamConfig.Chunk faults, so a campaign's resident fault storage is
// O(chunk × workers) — the universe size stops being a memory bound
// (the regime of exhaustive multi-million-fault coupling universes,
// experiment E17), and a materialized universe is just a
// fault.SliceSource.  Package coverage sizes each stage's chunks and
// worker count from the universe, so small campaigns stay parallel.
// Each worker owns one reusable chunk buffer, its collapser and its
// arena.  It claims a chunk's index range with one atomic add (there
// is no source mutex) and generates only the faults a dropped-fault
// bitmap leaves (fault.BitSet — the session layer's cross-test
// dropping), outside any lock, one Fill per run of survivors.  The
// chunk is then structurally collapsed chunk-locally on the
// compiled path (representatives and their expansion never outlive the
// chunk), replayed as 64-machine batches, and the verdicts delivered,
// keyed by universe index, to the worker's own sink.  Every driver
// takes a per-worker sink factory and calls each worker's sink without
// a driver lock, so workers never queue on the driver; a caller whose
// sinks share state brings its own lock, and each sink reports the
// time it spent blocked on it as that worker's sink wait.  Every
// driver returns each worker's timed totals for the run (a
// telemetry.Local per worker: kernel time, source wait, sink time and
// sink wait beside the fault counts), so the caller gets its own
// stage's time split whether or not a telemetry registry is attached.
// Because delivered chunks carry their [base, base+n)
// index range, a caller can fold them in universe order whatever the
// scheduling — package coverage's completion-frontier fold does
// exactly that, so its checkpoints are prefix-closed cuts.
// StreamShard exposes the same loop over a caller-supplied replay
// function (package coverage's chunked oracle).
//
// All drivers take a context.Context and cancel cooperatively at
// batch/chunk granularity: the check is one non-blocking channel
// receive per claim (free against context.Background's nil Done
// channel, never inside the replay kernel), cancelled workers drain
// after their in-flight batch, streaming drivers abandon the
// interrupted chunk before its sink delivery (sinks only ever see
// complete chunks), and the driver returns ctx.Err() alongside the
// partial results — callers separate interruption from replay failure
// with errors.Is.  StreamConfig.Base is the first universe index
// claimed, so a checkpoint resume or a partition starts there by index
// arithmetic alone.
//
// The engine is exact, not approximate: package coverage cross-checks
// all of it against the per-fault oracle path, and the equivalence
// property tests assert identical per-class results over full fault
// universes, for both kernels, with collapsing on and off — including
// signature-compressed (MISR/BIST) runners, whose aliasing the
// observer path models bit-exactly.  Runners opt in via
// coverage.ReplaySafe; anything else (un-annotated adaptive stimuli)
// stays on the oracle.
package sim
