// Command faultcov regenerates the paper's evaluation: every figure
// and quantitative claim as a table (the same output as
// `go test -bench=.` produces, without the timing).
//
// Usage:
//
//	faultcov                 # all experiments (compiled engine)
//	faultcov -exp e6         # one experiment; -exp '?' lists the ids
//	faultcov -format csv     # CSV output
//	faultcov -format json    # JSON Lines: one object per table row
//	faultcov -engine oracle  # per-fault reference engine
//	faultcov -workers 4      # fixed campaign worker count
//	faultcov -drop           # cross-test fault dropping in sessions
//	faultcov -session        # report survivors per session stage
//	faultcov -seed 99        # reseed the sampled coupling-pair draws
//	faultcov -chunk 65536    # cap on the faults per chunk of every campaign
//	faultcov -exp e17 -exhaustive-cf  # multi-million-fault exhaustive CF run
//	faultcov -progress       # live faults/s, ETA and survivors on stderr
//	faultcov -debug-addr :6060  # /metrics + /debug/pprof while running
//	faultcov -exp e17 -checkpoint run.fckp            # durable campaign
//	faultcov -exp e17 -checkpoint run.fckp -resume    # continue after a kill
//	faultcov -exp e17 -partition 2/3 -checkpoint p2.fckp  # one universe shard
//	faultcov -merge p1.fckp p2.fckp p3.fckp           # combine shard results
//
// -partition i/N restricts every streaming campaign session to the
// i-th of N near-equal index ranges of its fault universe, so N
// faultcov processes (or machines) can split one campaign.  It
// requires -checkpoint: the per-partition checkpoint file is the
// partition's output artifact.  Both flags reach streaming sessions
// only (E17's exhaustive campaigns), so a run whose experiments
// stream nothing exits 1 instead of leaving no file to merge.  -merge validates that the named
// checkpoint files are completed partitions of the same campaign
// (identical spec hash, seed and memory geometry; ranges tiling the
// universe with no gap or overlap), ORs their detection bitmaps, sums
// their tallies, and prints the combined result tables — byte-
// identical to the tables -merge prints for a single unpartitioned
// checkpoint of the same campaign.  With -checkpoint the merged state
// is also written to that file.
//
// -checkpoint makes the streaming campaign sessions durable: the
// session state (per-stage tallies, the cumulative detection bitmap
// and a high-water mark) is written atomically to the file every
// -checkpoint-every universe faults, at stage boundaries, on SIGINT/
// SIGTERM, and at completion.  A signal cancels the campaign
// cooperatively — in-flight work drains within one chunk, the final
// checkpoint is flushed, partial tables print, and faultcov exits with
// status 3.  -resume loads the checkpoint and fast-forwards the
// matching session past the work already done; a checkpoint written by
// a different campaign (spec, memory geometry or seed mismatch) or a
// corrupt file is refused up front.
//
// -progress attaches the telemetry registry and streams two kinds of
// stderr lines: periodic `# progress` lines during a stage (faults
// done, faults/s, ETA, survivors) and, when each session
// ends, one `# stage` line per stage it ran, in execution order
// (engine, elapsed, throughput, collapse ratio, and each worker's
// share of wall time spent blocked on the lock of the session's
// completion-frontier fold).  Each progress line is a sample the
// session's fold built from its cut, so "done" counts the faults
// folded so far and the survivors are those of that cut; the registry
// only paces the samples to one a second.  The stage lines come from
// the executed session itself, whose statistics every stage carries.
// Attaching -progress changes nothing about how a campaign runs: every
// session folds its chunks the same way, with or without an observer.
// -debug-addr serves the registry's process counters as JSON on
// /metrics plus the standard net/http/pprof profiles for the duration
// of the run; without either flag no registry is attached and the
// engines skip every flush behind one nil check.
//
// The experiment catalogue is defined once in this file (the order
// slice below) and the -exp help text is generated from it, so the two
// cannot drift apart as experiments are added.
//
// The -engine flag selects the campaign execution strategy: "compiled"
// (default) lowers the recorded test trace into a flat instruction
// program replayed allocation-free over per-worker arenas with
// structural fault collapsing; "bitpar" is the per-batch trace
// interpreter; "oracle" re-runs the full algorithm once per injected
// fault.  All three produce identical tables — including the
// signature-compressed (MISR/BIST) rows, whose aliasing the compiled
// engine's observers replay exactly; the oracle is the reference the
// replay engines are property-tested against.
//
// Experiments that compare several algorithms over one universe run as
// campaign sessions (coverage.Plan).  -drop enables cross-test fault
// dropping inside those sessions: once a fault is detected by one
// algorithm it is dropped from the rest, so later rows cover only the
// faults the preceding algorithms missed (the per-algorithm rows are
// then conditional on session order; defaults keep every row an
// independent full-universe campaign).  -session prints one summary
// line per session of two or more runners, with the survivor count
// after each stage.
//
// E17 runs over streaming fault universes (fault.Source): the faults
// are generated in chunks of at most -chunk faults instead of being
// materialized, so resident fault storage is O(chunk × workers)
// however large the universe.  Every campaign, streamed or not, sizes
// its chunks from its universe, so -chunk is an upper bound.  -exhaustive-cf switches E17 to its full-scale sizes,
// where the exhaustive coupling universe exceeds two million fault
// instances — feasible only via the streaming path.
//
// -seed replaces the per-experiment default seeds of every sampled
// coupling-pair draw (E5, E6, E10, E16 and E17's sampled baseline);
// the effective seed is printed in the run header so sampled tables
// are reproducible on demand.
//
// Every other campaign setting reaches the experiments as one value,
// repro.Config: a template coverage.Plan (engine, dropping, chunk,
// partition, checkpoint) plus the -session report, installed with
// repro.Configure together with the signal-cancelled context.  The
// lane width is no setting: -progress names the one each stage picked.
//
// Exit status: 0 on success; 1 when a setting reached no campaign
// session (-resume matched none, or -partition/-checkpoint with no
// streaming session); 2 on refused input (bad flags, an unknown
// experiment, a mismatched or corrupt checkpoint); 3 when a signal
// interrupted the run, after the partial tables print.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// experiments is the catalogue, in presentation order.  The -exp flag
// help and the unknown-id error are both generated from it.
type experiment struct {
	id    string
	build func() *report.Table
}

// catalogue returns the experiments; exhaustiveCF is the -exhaustive-cf
// flag, read when E17's table is built.
func catalogue(exhaustiveCF *bool) []experiment {
	return []experiment{
		{"fig1a", func() *report.Table { return repro.ExperimentFig1a(16) }},
		{"fig1b", func() *report.Table { return repro.ExperimentFig1b(257) }},
		{"fig2", func() *report.Table { return repro.ExperimentFig2([]int{64, 256, 1024}) }},
		{"e4", func() *report.Table { return repro.ExperimentSingleCell(48) }},
		{"e5", func() *report.Table { return repro.ExperimentCoupling(48) }},
		{"e6", func() *report.Table { return repro.ExperimentPRTvsMarch(48, 4) }},
		{"e7", repro.ExperimentBISTOverhead},
		{"e8", repro.ExperimentMarkov},
		{"e9", func() *report.Table { return repro.ExperimentIntraWord(32, 4) }},
		{"e10", func() *report.Table { return repro.ExperimentQualityFactors(48) }},
		{"e11", repro.ExperimentMultiplierSynthesis},
		{"e12", func() *report.Table { return repro.ExperimentNPSF(64, 8) }},
		{"e13", func() *report.Table { return repro.ExperimentRetention(48) }},
		{"e14", func() *report.Table { return repro.ExperimentRingMode([]int{64, 255, 257}) }},
		{"e15", func() *report.Table { return repro.ExperimentMISR(64) }},
		{"e16", func() *report.Table {
			return repro.ExperimentMISRAliasing([]int{64, 256}, []int{1, 2, 4, 8, 16})
		}},
		{"e17", func() *report.Table {
			// -exhaustive-cf scales the exhaustive coupling universes into
			// the millions (n=512 → 3.1M instances) — streaming only.
			if *exhaustiveCF {
				return repro.ExperimentExhaustiveCoupling([]int{64, 128, 256, 512}, 64)
			}
			return repro.ExperimentExhaustiveCoupling([]int{48, 96}, 64)
		}},
	}
}

func main() {
	// SIGINT/SIGTERM cancel the campaign context: in-flight stages drain
	// within a chunk, durable sessions flush a final checkpoint, and the
	// partial tables still print before run reports the interrupt.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stopSignals()
	os.Exit(code)
}

// run is faultcov: it parses args, runs the selected experiments under
// ctx, writes tables to stdout and diagnostics to stderr, and returns
// the exit status (see the package comment).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultcov", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exhaustiveCF := fs.Bool("exhaustive-cf", false, "run E17 over the full-scale exhaustive coupling universes (millions of fault instances, streaming engine only)")
	exps := catalogue(exhaustiveCF)
	order := make([]string, len(exps))
	byID := make(map[string]func() *report.Table, len(exps))
	for i, e := range exps {
		order[i] = e.id
		byID[e.id] = e.build
	}
	ids := strings.Join(order, ", ")

	exp := fs.String("exp", "all", fmt.Sprintf("experiment id: %s or all", ids))
	format := fs.String("format", "text", "output format: text (aligned), csv, or json (JSON Lines, one object per row)")
	engine := fs.String("engine", "compiled", "campaign engine: compiled (arena replay), bitpar (per-batch interpreter) or oracle (one run per fault)")
	workers := fs.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
	drop := fs.Bool("drop", false, "cross-test fault dropping: later runners of a comparison session simulate only the faults earlier runners missed (their rows then cover survivors only)")
	session := fs.Bool("session", false, "print one summary line per comparison session (two or more runners) with survivors after each stage")
	seed := fs.Int64("seed", 0, "seed for the sampled coupling-pair draws (0 = per-experiment defaults), printed in the run header")
	chunk := fs.Int("chunk", 0, "upper bound on the faults per chunk of every campaign; each stage sizes its chunks from its universe (0 = the engine default)")
	progress := fs.Bool("progress", false, "stream live campaign progress (faults/s, ETA, survivors) and per-stage engine reports to stderr")
	debugAddr := fs.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :6060) for the duration of the run")
	checkpointPath := fs.String("checkpoint", "", "write streaming-campaign checkpoints atomically to this file (enables durable campaigns)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "checkpoint cadence in universe faults (0 = the package default; requires -checkpoint)")
	resume := fs.Bool("resume", false, "resume the campaign from the -checkpoint file if it exists")
	partitionFlag := fs.String("partition", "", "run only one index-range shard of each streaming campaign, format i/N (1-based, N >= 2; requires -checkpoint; combine the shard checkpoints with -merge)")
	merge := fs.Bool("merge", false, "merge completed partition checkpoint files (the positional arguments) and print the combined result tables; -checkpoint writes the merged state to that file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "faultcov: "+format+"\n", args...)
		return 2
	}
	// Up-front flag validation: a bad combination must refuse before any
	// campaign runs, not fail (or silently misbehave) hours in.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["chunk"] && *chunk < 1 {
		return fail("-chunk must be at least 1 (got %d)", *chunk)
	}
	if *workers < 0 {
		return fail("-workers must be non-negative (got %d)", *workers)
	}
	if explicit["checkpoint-every"] && *checkpointPath == "" {
		return fail("-checkpoint-every requires -checkpoint")
	}
	if *checkpointEvery < 0 {
		return fail("-checkpoint-every must be non-negative (got %d)", *checkpointEvery)
	}
	if *resume && *checkpointPath == "" {
		return fail("-resume requires -checkpoint")
	}
	partIdx, partCnt := 0, 0
	if *partitionFlag != "" {
		if *merge {
			return fail("-partition and -merge are mutually exclusive (run the partitions first, then merge their checkpoints)")
		}
		var ok bool
		partIdx, partCnt, ok = parsePartition(*partitionFlag)
		if !ok {
			return fail("-partition wants i/N with integers 1 <= i <= N and N >= 2 (got %q); e.g. -partition 2/3", *partitionFlag)
		}
		if *checkpointPath == "" {
			return fail("-partition requires -checkpoint: the per-partition checkpoint file is the shard's output (combine them with faultcov -merge)")
		}
	}
	if *merge && *resume {
		return fail("-resume is meaningless with -merge (with -merge, -checkpoint names the output file)")
	}
	eng, err := coverage.ParseEngine(*engine)
	if err != nil {
		return fail("%v", err)
	}
	switch *format {
	case "text", "csv", "json":
	default:
		return fail("unknown format %q (want text, csv or json)", *format)
	}
	if *merge {
		return mergeCheckpoints(fs.Args(), *checkpointPath, *format, stdout, stderr, fail)
	}
	id := strings.ToLower(*exp)
	if _, ok := byID[id]; !ok && id != "all" {
		return fail("unknown experiment %q (choose from %s)", *exp, ids)
	}
	coverage.SetDefaultWorkers(*workers)
	repro.SetSampleSeed(*seed)

	// Every faultcov setting but the worker count and the seed reaches
	// the experiments' sessions through this one value.
	cfg := repro.Config{Plan: coverage.Plan{
		Engine: eng, Drop: *drop, Chunk: *chunk,
		PartitionIndex: partIdx, PartitionCount: partCnt,
	}}
	if *checkpointPath != "" {
		cfg.Plan.Checkpoint = &coverage.CheckpointConfig{
			Path:  *checkpointPath,
			Every: *checkpointEvery,
			Label: fmt.Sprintf("faultcov -exp %s -engine %s -drop=%v -seed %d", id, eng, *drop, *seed),
			Seed:  *seed,
		}
		if *resume {
			st, err := checkpoint.Load(*checkpointPath)
			switch {
			case err == nil:
				// The full identity (spec hash, geometry, stage order) is
				// validated against each streaming session before it runs;
				// the seed is checkable right here, so refuse the obvious
				// mismatch before any simulation starts.
				if st.Seed != *seed {
					return fail("-resume: checkpoint %q was written with seed %d, this run has seed %d", *checkpointPath, st.Seed, *seed)
				}
				cfg.Plan.Checkpoint.Resume = st
				fmt.Fprintf(stderr, "# resuming from %s (%q)\n", *checkpointPath, st.Label)
			case errors.Is(err, os.ErrNotExist):
				fmt.Fprintf(stderr, "# no checkpoint at %s yet; starting fresh\n", *checkpointPath)
			default:
				return fail("-resume: %v", err)
			}
		}
	}
	if *progress || *debugAddr != "" {
		reg := telemetry.NewRegistry()
		if *progress {
			reg.OnProgress(time.Second, func(p telemetry.Progress) {
				line := fmt.Sprintf("# progress %s: %d", p.Stage, p.Done)
				if p.Total > 0 {
					line += fmt.Sprintf("/%d (%.1f%%)", p.Total, 100*float64(p.Done)/float64(p.Total))
				}
				line += fmt.Sprintf(" faults, %s faults/s", coverage.FormatRate(p.FaultsPerSec))
				if p.ETA >= 0 {
					line += fmt.Sprintf(", ETA %s", p.ETA.Round(time.Second))
				}
				line += fmt.Sprintf(", survivors %d", p.Survivors)
				fmt.Fprintln(stderr, line)
			})
		}
		telemetry.SetActive(reg)
		defer telemetry.SetActive(nil)
		if *debugAddr != "" {
			addr, err := telemetry.ServeDebug(*debugAddr, reg)
			if err != nil {
				return fail("debug endpoint: %v", err)
			}
			fmt.Fprintf(stderr, "# debug endpoint on http://%s (/metrics, /debug/pprof)\n", addr)
		}
	}
	if *progress || *session {
		// Session lines go to stdout only in text mode; the csv/json
		// streams stay machine-readable, so the report moves to stderr.
		sessionOut := stdout
		if *format != "text" {
			sessionOut = stderr
		}
		cfg.OnSession = func(p *coverage.Plan, s *coverage.Session) {
			if *progress {
				for _, st := range s.Stages {
					// A stage restored from a checkpoint, or cut short by an
					// interrupt, has no run of its own to report.
					if st.Stats != nil && !s.Results[st.RunnerIndex].Interrupted {
						fmt.Fprintln(stderr, stageLine(p.UniverseName(), st))
					}
				}
			}
			if *session && len(p.Runners) > 1 {
				fmt.Fprintf(sessionOut, "# session %s [%s]: %s — cumulative %s\n",
					p.UniverseName(), eng, s.FormatStages(),
					report.Percent(s.Cumulative.Detected, s.Cumulative.Total))
			}
		}
	}
	repro.Configure(ctx, cfg)

	if *format == "text" {
		effWorkers := *workers
		if effWorkers <= 0 {
			effWorkers = runtime.GOMAXPROCS(0)
		}
		seedLabel := "default"
		if *seed != 0 {
			seedLabel = fmt.Sprintf("%d", *seed)
		}
		effChunk := *chunk
		if effChunk <= 0 {
			effChunk = sim.DefaultChunk
		}
		partLabel := ""
		if partCnt > 0 {
			partLabel = fmt.Sprintf(" partition=%d/%d", partIdx, partCnt)
		}
		fmt.Fprintf(stdout, "# engine=%s workers=%d drop=%v seed=%s chunk=%d%s\n\n",
			eng, effWorkers, *drop, seedLabel, effChunk, partLabel)
	}

	selected := order
	if id != "all" {
		selected = []string{id}
	}
	tables := make([]*report.Table, len(selected))
	for i, k := range selected {
		tables[i] = byID[k]()
	}
	for _, t := range tables {
		writeTable(stdout, t, *format)
	}

	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "# interrupted: tables above are partial; rerun with -checkpoint ... -resume to continue")
		return 3
	}
	if *checkpointPath != "" && repro.StreamedSessions() == 0 {
		flagName := "-checkpoint"
		if partCnt > 0 {
			flagName = "-partition"
		}
		fmt.Fprintf(stderr, "faultcov: %s applies to streaming campaign sessions only, and -exp %s ran none: nothing was partitioned or checkpointed\n", flagName, *exp)
		return 1
	}
	if repro.ResumePending() {
		fmt.Fprintf(stderr, "faultcov: checkpoint %s matched no campaign session of this run (wrong -exp or flags?)\n", *checkpointPath)
		return 1
	}
	return 0
}

// stageLine renders one executed stage as -progress reports it: the
// engine that ran (with the lane width a compiled stage picked from its
// memory size), elapsed time, throughput, the share of its scheduled
// instructions the compiled kernels executed, collapse ratio, and each
// worker's share of the stage's wall time spent blocked on the lock of
// the session's completion-frontier fold.
func stageLine(universe string, st coverage.StageStat) string {
	es := st.Stats
	engine := es.Engine.String()
	if es.LaneWords > 0 {
		engine += fmt.Sprintf(", %d lanes", es.LaneWords*sim.BatchSize)
	}
	line := fmt.Sprintf("# stage %s/%s [%s]: %d faults in %s, %s faults/s",
		universe, st.Runner, engine, st.Entered,
		coverage.FormatDuration(es.Elapsed), coverage.FormatRate(es.FaultsPerSec))
	if es.ScheduledOps > 0 {
		line += fmt.Sprintf(", ops %.1f%%", 100*float64(es.ExecutedOps)/float64(es.ScheduledOps))
	}
	if es.CollapseRatio > 0 && es.CollapseRatio < 1 {
		line += fmt.Sprintf(", collapse %.2f", es.CollapseRatio)
	}
	if st.CacheHit {
		line += ", cached program"
	}
	if shares := es.SinkWaitShares(); len(shares) > 0 {
		pct := make([]string, len(shares))
		for i, sh := range shares {
			pct[i] = fmt.Sprintf("%.0f%%", 100*sh)
		}
		line += fmt.Sprintf(", sink-wait/worker [%s]", strings.Join(pct, " "))
	}
	return line
}

// writeTable prints one table in the selected format; text and csv
// tables are followed by a blank line.
func writeTable(w io.Writer, t *report.Table, format string) {
	switch format {
	case "csv":
		t.CSV(w)
	case "json":
		t.JSONL(w)
	default:
		t.Render(w)
	}
	if format != "json" {
		fmt.Fprintln(w)
	}
}

// parsePartition parses the -partition flag's i/N shard selector.
// Only 1 <= i <= N with N >= 2 is a valid selector — N=1 is just an
// unpartitioned run, so it is refused rather than silently ignored.
func parsePartition(s string) (i, n int, ok bool) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, false
	}
	i, err1 := strconv.Atoi(s[:slash])
	n, err2 := strconv.Atoi(s[slash+1:])
	if err1 != nil || err2 != nil || n < 2 || i < 1 || i > n {
		return 0, 0, false
	}
	return i, n, true
}

// mergeCheckpoints is the -merge mode: load the named partition
// checkpoint files, combine them (checkpoint.Merge validates that they
// are completed shards of one campaign tiling its universe), print the
// combined result tables in the selected format, and — when outPath is
// set — write the merged state as a full-universe checkpoint.  The
// tables are rendered from the merged State alone, so merging N
// partition files and "merging" the single checkpoint of an
// unpartitioned run of the same campaign print byte-identical output.
// It returns the exit status.
func mergeCheckpoints(paths []string, outPath, format string, stdout, stderr io.Writer, fail func(string, ...any) int) int {
	if len(paths) == 0 {
		return fail("-merge needs the partition checkpoint files as arguments, e.g. faultcov -merge part1.fckp part2.fckp part3.fckp")
	}
	states := make([]*checkpoint.State, len(paths))
	for i, p := range paths {
		st, err := checkpoint.Load(p)
		if err != nil {
			return fail("-merge: %s: %v", p, err)
		}
		states[i] = st
	}
	merged, err := checkpoint.Merge(states)
	if err != nil {
		return fail("-merge: %v", err)
	}
	if outPath != "" {
		if err := checkpoint.WriteAtomic(outPath, merged); err != nil {
			return fail("-merge: writing %s: %v", outPath, err)
		}
		fmt.Fprintf(stderr, "# merged %d checkpoint(s) into %s\n", len(paths), outPath)
	}
	for _, t := range mergeTables(merged) {
		writeTable(stdout, t, format)
	}
	return 0
}

// mergeTables renders a merged State's result tables: the per-stage
// campaign outcome and the per-fault-class universe tally.  Everything
// comes from the State, so the output is deterministic.
func mergeTables(s *checkpoint.State) []*report.Table {
	stages := report.New(
		fmt.Sprintf("Merged campaign: %d universe faults, %d stage(s) [%s]", s.UniverseN, len(s.Done), s.Label),
		"stage", "entered", "detected", "coverage", "survivors")
	for _, r := range s.Done {
		stages.AddRow(r.Runner, r.Entered, r.Detected,
			report.Percent(int(r.Detected), int(r.Entered)), r.Survivors)
	}
	classes := report.New("Merged universe by fault class",
		"class", "total", "detected", "coverage")
	for _, ct := range s.Universe {
		classes.AddRow(fault.Class(ct.Class).String(), ct.Total, ct.Detected,
			report.Percent(int(ct.Detected), int(ct.Total)))
	}
	return []*report.Table{stages, classes}
}
