// Package telemetry is the campaign instrumentation layer: cheap,
// race-clean counters threaded through the simulation engines (the
// sim streaming drivers, the program cache, the arena pool, fault
// collapsing) and the coverage session executor.
//
// # Design
//
// The kernel hot path must stay hot, so the package is built around
// two tiers:
//
//   - Worker-local counts (Local): each streaming worker fills a plain
//     struct per chunk — no atomics, no sharing — and adds it to its
//     own totals for the stage.  The driver returns those totals, one
//     Local per worker, with the stage itself, so a stage's per-worker
//     time split (kernel, source wait, sink wait) travels with the call
//     that produced it, registry or no registry, and concurrent
//     sessions never mix their accounts.
//
//   - Process counters (Registry): when a registry is attached
//     (SetActive), each worker also flushes every chunk's Local into
//     one set of atomic counters — a handful of atomic adds amortized
//     over up to 8192 faults — beside the low-frequency event counters
//     (program-cache hits, arena reuse, collapse in/out, checkpoint
//     writes).  Readers take a Snapshot of the totals whenever they
//     want one; writers never aggregate.
//
// When no Registry is attached (telemetry.Active() == nil) the
// instrumented engines skip every flush behind a nil check, so the
// registry is compiled in but near-free.  BenchmarkTelemetryOverhead
// measures both modes on the compiled campaign path; the ~2% budget
// between them is checked with -count 10 medians, not a single pass.
//
// # Progress
//
// Each session builds its own progress samples: its completion-frontier
// fold (coverage) offers one from its cut whenever the frontier
// advances — the running stage, faults folded out of the stage's total,
// the frontier itself as the high-water mark, and the session's
// survivor count.  Every index below the high-water mark is done, so
// it is exactly the point a resumable run would restart from, and Done
// counts folded faults only, so the three numbers describe one cut.
// The registry holds no stage state: Report paces the samples offered
// (at most one per OnProgress interval across the process, none in a
// stage's first interval), fills in the elapsed time, throughput and
// an ETA extrapolated from the rate so far, and calls the callback.
// Sessions running at once in one process therefore report their own
// stages separately.  Completed stages are not reported here: their
// statistics, per-worker times included, come back in the executed
// session (coverage.Session.Stages).
//
// # Debug endpoint
//
// ServeDebug exposes the same snapshot as flat JSON on /metrics plus
// the standard net/http/pprof handlers, so a long scaling run can be
// profiled in flight (faultcov -debug-addr :6060).
package telemetry
