// Package telemetry is the campaign instrumentation layer: cheap,
// race-clean counters threaded through the simulation engines (the
// sim streaming drivers, the program cache, the arena pool, fault
// collapsing) and the coverage session executor.
//
// # Design
//
// The kernel hot path must stay hot, so the package is built around
// three tiers:
//
//   - Worker-local accumulation (Local): each shard worker owns a plain
//     struct it increments freely — no atomics, no sharing, effectively
//     register arithmetic.
//
//   - Per-worker flush slots (Worker): cache-line-padded blocks of
//     atomic counters, one per worker index.  A worker flushes its
//     Local into its slot once per chunk — a handful of uncontended
//     atomic adds amortized over up to 8192 faults.  False sharing is
//     kept off the table by the padding.
//
//   - Aggregation on read (Snapshot): readers sum the slots (plus the
//     low-frequency global counters: program-cache hits, arena reuse,
//     collapse in/out) whenever they want a view.  Writers never
//     aggregate.
//
// When no Registry is attached (telemetry.Active() == nil) the
// instrumented drivers skip every timestamp and counter behind a single
// nil check per batch, so the instrumentation is compiled in but
// near-free — BenchmarkTelemetryOverhead guards the bound (<2% on the
// compiled campaign path).
//
// # Progress
//
// A Registry carries one active campaign stage at a time
// (BeginStage): flushes feed a rate-limited Progress callback
// (OnProgress) with faults done/total, throughput, an ETA extrapolated
// from the rate so far, the universe-index high-water mark, and the
// session's current survivor count.  The coverage executor reports the
// last two from its completion-frontier fold: every index below the
// high-water mark is done, so it is exactly the point a resumable run
// would restart from.  Completed stages are reported through OnStage
// with per-worker kernel / sink-wait / source-wait time — the
// sink-wait share is the direct answer to "is the fold's lock the
// bottleneck at N workers".
//
// # Debug endpoint
//
// ServeDebug exposes the same snapshot as flat JSON on /metrics plus
// the standard net/http/pprof handlers, so a long scaling run can be
// profiled in flight (faultcov -debug-addr :6060).
package telemetry
