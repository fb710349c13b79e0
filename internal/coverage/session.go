// The session planner/executor.  Stage ordering and result folding
// must be deterministic: comparative experiments byte-compare session
// output across engines and runs.
//
//faultsim:deterministic

package coverage

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// This file is the campaign session layer: Plan describes an ordered
// set of test algorithms over one fault universe and memory factory;
// Run executes it as a pipeline.  The layering replaces "one runner ×
// one universe, stateless" with the structure comparative experiments
// actually have — several tests over the same universe — and exploits
// it three ways:
//
//   - cross-test fault dropping (Plan.Drop): once a fault is detected
//     by one test of the session it is dropped from the remaining
//     tests, which skip every universe index set in the cumulative
//     detection bitmap (fault.BitSet, one bit per universe fault) and
//     generate only the rest of their chunks.  Dropping is
//     verdict-preserving: a fault that IS simulated by a stage gets
//     exactly the verdict an independent campaign would give it
//     (verdicts are unconditional properties of the (runner, fault)
//     pair), and the session-level cumulative result is byte-identical
//     with dropping on or off.  What changes is bookkeeping: a
//     dropped-mode stage's Result covers only the faults presented to
//     it.
//
//   - cheapest-trace-first ordering (OrderCheapestFirst): stages run in
//     ascending clean-run length, so cheap tests pay for the easy kills
//     before expensive tests see the universe.
//
//   - a compiled-program cache (sim.ProgramCache): recording and
//     compiling a runner's trace is keyed by (runner identity, memory
//     geometry, initial image) and shared across sessions, so repeated
//     sweeps compile each trace once.  Runners opt in via TraceKeyer.

// Order selects the stage execution order of a session.
type Order int

const (
	// OrderAsGiven runs the stages in Plan.Runners order.
	OrderAsGiven Order = iota
	// OrderCheapestFirst runs stages in ascending clean-run operation
	// count (stable for ties) — the classic fault-dropping schedule:
	// cheap tests drop the easy faults before expensive tests run.
	OrderCheapestFirst
)

// Verdict is one stage's outcome for one universe fault.
type Verdict uint8

const (
	// VerdictUndetected: the stage simulated the fault and missed it.
	VerdictUndetected Verdict = iota
	// VerdictDetected: the stage simulated the fault and caught it.
	VerdictDetected
	// VerdictDropped: an earlier stage had already detected the fault,
	// so this stage never simulated it (Plan.Drop only).
	VerdictDropped
)

// TraceKeyer lets a runner opt in to the cross-session program cache.
// The key must uniquely determine the operation schedule and replay
// annotations the runner produces on any memory of a given geometry
// and initial image.  A display name is NOT enough: distinct
// configurations (E10's factor grid) share names, so implementations
// must serialise the full configuration.  Runners without the
// interface are recorded and compiled fresh each session — always
// correct, never cached.
type TraceKeyer interface {
	Runner
	// TraceKey returns the configuration-complete identity string.
	TraceKey() string
}

// Plan describes a campaign session.  A Plan and the context passed to
// RunContext are its whole configuration: every unset field falls back
// to a constant, or to DefaultWorkers for Workers.  The zero values
// give the default pipeline: compiled engine, no dropping, given
// order, no caching.
type Plan struct {
	// Name labels the session's cumulative result ("session" when
	// empty).
	Name string
	// Runners are the test algorithms, in presentation order:
	// Session.Results is always index-aligned with this slice whatever
	// the execution order.
	Runners []Runner
	// Universe is the shared fault universe, run as a
	// fault.SliceSource by the same executor as Stream.
	Universe fault.Universe
	// Stream, when non-nil, replaces Universe with a fault source
	// generated in bounded chunks (stream.go): the session then
	// holds O(Chunk × Workers) fault instances plus one bit per
	// universe fault, whatever the universe size.  Universe is ignored
	// while Stream is set.
	Stream *fault.Stream
	// Chunk caps the faults per chunk claim (<= 0 means
	// sim.DefaultChunk).  It is an upper bound: each stage shrinks its
	// chunks to about a quarter of its share per worker,
	// rounded up to whole replay batches (a cap below one batch reads
	// as one batch).
	Chunk int
	// Memory builds a fresh fault-free memory per trial.
	Memory MemoryFactory
	// Workers caps the campaign goroutines (<= 0 means
	// DefaultWorkers()).
	Workers int
	// Engine selects the execution strategy for every stage (with the
	// usual per-stage oracle fallback for non-replayable runners).
	Engine Engine
	// Drop enables cross-test fault dropping; see the package comment
	// for the exact semantics.
	Drop bool
	// Order selects the stage execution order.
	Order Order
	// KeepVectors retains a per-runner verdict vector over the full
	// universe (Session.Vectors), rebuilt from each stage's detection
	// bitmap after it drains — the property tests' view of exactly what
	// each stage simulated and decided.
	KeepVectors bool
	// Cache, when non-nil, memoizes compiled programs across sessions
	// for runners implementing TraceKeyer.  SharedProgramCache() is the
	// process-wide instance the experiment harness and benchmarks use.
	Cache *sim.ProgramCache
	// Checkpoint, when non-nil with a Path, makes a Stream session
	// durable: its state is persisted atomically on a cadence and the
	// session can resume from a prior checkpoint (durable.go).  nil
	// means not durable.  Universe plans ignore it.
	Checkpoint *CheckpointConfig
	// PartitionIndex/PartitionCount restrict a Stream session to one
	// index-range partition of its universe — partition
	// PartitionIndex (1-based) of PartitionCount near-equal ranges
	// (fault.PartitionRange).  The session then enumerates only that
	// subrange, its results tally only those faults, and its
	// checkpoints record the covered range for checkpoint.Merge.
	// PartitionCount <= 0 means unpartitioned.  Requires an
	// exact-Count source and is incompatible with KeepVectors;
	// Universe plans ignore both fields.
	PartitionIndex, PartitionCount int
	// lanes, when positive, forces the compiled lane width (tests only).
	lanes int
}

// StageStat reports one executed stage, in execution order.
type StageStat struct {
	// Runner is the stage's display name; RunnerIndex its position in
	// Plan.Runners (and so in Session.Results).
	Runner      string
	RunnerIndex int
	// Entered is the number of faults presented to the stage (the
	// survivor count when dropping; the full universe otherwise).
	Entered int
	// Detected is the number of presented faults the stage caught.
	Detected int
	// Survivors is the cumulative number of universe faults no stage
	// has detected yet, after this stage — the session-ordered coverage
	// progression (and, when dropping, the next stage's Entered).
	Survivors int
	// CacheHit reports that the stage's compiled program came from the
	// program cache (no recording or compilation happened).
	CacheHit bool
	// Stats is the stage's engine execution report.
	Stats *EngineStats
}

// Session is an executed Plan.
type Session struct {
	// Results holds one campaign Result per runner, index-aligned with
	// Plan.Runners.  Without dropping each is byte-identical to an
	// independent CampaignEngine run (the session property tests
	// enforce it); with dropping a stage's Result covers the faults
	// presented to it.
	Results []Result
	// Cumulative is the session-level result: a fault counts as
	// detected when at least one stage detected it.  It is identical
	// with dropping on or off.  OpsCleanRun totals the stages' clean
	// runs (the session's total test length).
	Cumulative Result
	// Stages reports the executed stages in execution order.
	Stages []StageStat
	// Vectors (KeepVectors only) holds per-runner verdicts over the
	// full universe, index-aligned with Plan.Runners.
	Vectors [][]Verdict
	// Interrupted reports that the session's context was cancelled
	// before every stage finished: the results cover only the work done
	// up to the cancellation point (the last running stage's Result is
	// itself tagged Interrupted, and later stages never ran).
	Interrupted bool
}

// sharedCache is the process-wide program cache.
var sharedCache = sim.NewProgramCache()

// SharedProgramCache returns the process-wide compiled-program cache
// the experiment harness, CampaignStream and the benchmarks opt in to
// via Plan.Cache.
func SharedProgramCache() *sim.ProgramCache { return sharedCache }

// stage is one runner's prepared execution state.
type stage struct {
	runner        Runner
	index         int
	cleanOps      uint64
	falsePositive bool
	prog          *sim.Program // compiled fast path
	tr            *sim.Trace   // bit-parallel fast path
	cacheHit      bool
	cacheTried    bool // a program-cache lookup happened during prepare
}

// Run executes the session uncancellably: RunContext under
// context.Background().
func (p *Plan) Run() *Session {
	//faultsim:ambient the context-less entry point for callers with nothing to cancel; cancellable callers use RunContext
	return p.RunContext(context.Background())
}

// RunContext executes the session under ctx.  Cancellation is
// cooperative at batch/chunk granularity: the in-flight stage drains
// its workers, the contiguous prefix of chunks it completed (the
// fold's frontier) makes up a well-formed Result tagged Interrupted,
// remaining stages are skipped, and the session returns with
// Session.Interrupted set.
//
// Both plan shapes run on one executor (stream.go): a materialized
// Universe is streamed as a fault.SliceSource.  It keeps two
// differences from a Stream plan: its faults are probed for batch
// injection up front, so a universe holding custom non-batchable
// faults falls back to the oracle instead of failing a replay, and
// checkpointing and partitioning never apply to it.
func (p *Plan) RunContext(ctx context.Context) *Session {
	if p.Stream != nil {
		return p.runStream(ctx, p.Stream, true)
	}
	u := &fault.Stream{Name: p.Universe.Name, Source: fault.SliceSource(p.Universe.Faults)}
	return p.runStream(ctx, u, false)
}

// executionOrder applies Plan.Order to the prepared stages.
func (p *Plan) executionOrder(stages []*stage) []*stage {
	order := make([]*stage, len(stages))
	copy(order, stages)
	if p.Order == OrderCheapestFirst {
		sort.SliceStable(order, func(a, b int) bool { return order[a].cleanOps < order[b].cleanOps })
	}
	return order
}

// sessionName labels the cumulative result.
func (p *Plan) sessionName() string {
	if p.Name == "" {
		return "session"
	}
	return p.Name
}

// UniverseName returns the universe label whichever shape the plan
// has: the stream's name for Stream plans, the universe's otherwise.
func (p *Plan) UniverseName() string {
	if p.Stream != nil {
		return p.Stream.Name
	}
	return p.Universe.Name
}

// finishStage completes a stage's engine report with its timing
// fields (elapsed, faults/s, collapse ratio, cache lookups), which
// every path gets, oracle fallbacks included.  presented is the fault
// count the stage was handed (the survivor subset when dropping).
func finishStage(stats *EngineStats, st *stage, presented int, elapsed time.Duration) {
	stats.Elapsed = elapsed
	if elapsed > 0 {
		stats.FaultsPerSec = float64(presented) / elapsed.Seconds()
	}
	stats.CollapseRatio = 1
	if presented > 0 {
		stats.CollapseRatio = float64(stats.Reps) / float64(presented)
	}
	if st.cacheTried {
		if st.cacheHit {
			stats.CacheHits = 1
		} else {
			stats.CacheMisses = 1
		}
	}
}

// sumCleanRuns folds the stages' clean-run metadata into the
// cumulative result.
func sumCleanRuns(stages []*stage, cum *Result) {
	for _, st := range stages {
		cum.OpsCleanRun += st.cleanOps
		cum.FalsePositive = cum.FalsePositive || st.falsePositive
	}
}

// prepareStage runs the clean baseline for one runner: under the
// replay engines the run is recorded (and, for the compiled engine,
// lowered to a program — or fetched from the cache without running at
// all); otherwise it is a plain clean run.  A false-positive clean run
// or a non-replayable trace leaves the stage on the oracle, exactly as
// CampaignEngine always fell back.
func (p *Plan) prepareStage(r Runner, index int, batchable bool) *stage {
	st := &stage{runner: r, index: index}
	_, replaySafe := r.(ReplaySafe)
	if p.Engine == EngineOracle || !replaySafe || !batchable {
		st.falsePositive, st.cleanOps = runClean(r, p.Memory)
		return st
	}
	mem := p.Memory()
	lanes := p.laneWords(mem.Size())
	var key sim.ProgramKey
	cached := false
	if tk, ok := r.(TraceKeyer); ok && p.Cache != nil && p.Engine == EngineCompiled {
		key = sim.ProgramKey{
			Runner:   tk.TraceKey(),
			Size:     mem.Size(),
			Width:    mem.Width(),
			Lanes:    lanes,
			InitHash: sim.InitHash(mem),
		}
		cached = true
		st.cacheTried = true
		if e, hit := p.Cache.Get(key); hit {
			st.prog, st.cleanOps, st.cacheHit = e.Prog, e.CleanOps, true
			return st
		}
	}
	tr, cleanDetected, cleanOps := sim.Record(mem, r.Run)
	st.cleanOps = cleanOps
	st.falsePositive = cleanDetected
	// A false-positive clean run breaks the checked-read criterion
	// (clean values no longer equal the algorithm's expectations), and
	// an unannotated trace has nothing to replay: both keep the oracle
	// semantics.
	if cleanDetected || !tr.Replayable() {
		return st
	}
	if p.Engine == EngineBitParallel {
		st.tr = tr
		return st
	}
	prog, err := sim.Compile(tr, lanes)
	if err != nil {
		// Replayability was pre-checked, so an error here is a broken
		// invariant in the engine — failing loudly beats silently
		// delivering correct-but-slow oracle results under a fast-path
		// label.
		panic(fmt.Sprintf("coverage: compile of %s: %v", r.Name(), err))
	}
	st.prog = prog
	if cached {
		p.Cache.Put(key, &sim.CachedProgram{Prog: prog, CleanOps: cleanOps})
	}
	return st
}

// wideCells is the memory size from which compiled stages replay 512
// machines per pass: below it passes are short, and eight lane words
// per op cost more than the dispatch and resets they amortize.
const wideCells = 512

// laneWords picks a stage's lane width in 64-machine words from its
// cell count alone, so a session primed on a prefix of its universe
// caches the width the whole universe runs at.
func (p *Plan) laneWords(cells int) int {
	switch {
	case p.lanes > 0:
		return p.lanes
	case cells >= wideCells:
		return sim.MaxLaneWords
	}
	return DefaultLaneWords()
}

// runClean measures the clean baseline for oracle-path stages.
func runClean(r Runner, mk MemoryFactory) (falsePositive bool, ops uint64) {
	detected, ops := r.Run(mk())
	return detected, ops
}

// FormatStages renders the session's stage progression as one line:
// "MATS+ 1292→301 (1.2ms, 1.1M faults/s); March C- 301→4 (…)"
// (entered→survivors with stage timing, execution order) — the
// faultcov -session report.
func (s *Session) FormatStages() string {
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		parts[i] = fmt.Sprintf("%s %d→%d", st.Runner, st.Entered, st.Survivors)
		if st.Stats != nil && st.Stats.Elapsed > 0 {
			parts[i] += fmt.Sprintf(" (%s, %s faults/s)",
				FormatDuration(st.Stats.Elapsed), FormatRate(st.Stats.FaultsPerSec))
		}
	}
	return strings.Join(parts, "; ")
}

// FormatRate renders a faults/s figure compactly ("1.2M", "534k").
func FormatRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// FormatDuration rounds a stage time to report precision.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
