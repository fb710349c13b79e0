// Command faultbench is this repository's benchmark.  It times fault-
// simulation campaigns end to end on four workloads, checks every
// campaign's output against a reference, and in a separate
// traced run times each layer from outside the program.  bench/README.md
// defines the metrics and workloads.
//
// Run it from the repository root through bench/run.sh, which builds
// faultbench and cmd/faultcov from source first:
//
//	bash bench/run.sh -seed 1                            # every workload
//	bash bench/run.sh -workload cf-stream -seed 1        # one workload
//	bash bench/run.sh -workload wom-session -trace 1     # per-layer metrics and spans
//	bash bench/run.sh -compare A B                       # two sets of runs against the bounds
//	bash bench/run.sh -write-golden -seed 4              # oracle references for a seed
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the full result, with the
// environment, the samples behind each metric and the time budget, is
// written under -out.  The exit status is 1 when an output check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := runConfig{size: fullSize}
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v (empty runs all of them)", workloadNames))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks the CF segments, the sampled coupling pairs and faultcov's -seed (1 and 2 for development, 3 held out for claims)")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "time budget of each workload's timed campaigns, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics and spans instead of end-to-end metrics")
	fs.IntVar(&cfg.workers, "workers", 2, "campaign workers")
	fs.IntVar(&cfg.gomaxprocs, "gomaxprocs", 2, "GOMAXPROCS of every benchmark process")
	fs.StringVar(&cfg.faultcov, "faultcov", "", "path of the built cmd/faultcov binary (paper-eval)")
	fs.StringVar(&cfg.goldenDir, "golden", filepath.Join("bench", "golden"), "directory of the committed oracle references")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for results, traces and cached references")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark contract (-compare reads its bounds)")
	compare := fs.Bool("compare", false, "compare two sides given as arguments, each a result file or a directory of result files (one run each)")
	golden := fs.Bool("write-golden", false, "write the oracle references of -seed (every workload, or -workload) to -golden")
	child := fs.String("child", "", "internal: run as a child process (workload or eval)")
	fs.StringVar(&cfg.refPath, "ref", "", "internal: the child's reference file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "faultbench: "+format+"\n", a...)
		return 2
	}
	switch {
	case *traceFlag != 0 && *traceFlag != 1:
		return fail("-trace must be 0 or 1")
	case cfg.workers < 1 || cfg.gomaxprocs < 1:
		return fail("-workers and -gomaxprocs must be at least 1")
	case cfg.seconds < 0:
		return fail("-seconds must not be negative")
	case cfg.workload != "" && !isWorkload(cfg.workload):
		return fail("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	cfg.trace = *traceFlag == 1
	runtime.GOMAXPROCS(cfg.gomaxprocs)

	switch {
	case *compare:
		return runCompare(*specPath, fs.Args(), stdout, stderr)
	case *child != "":
		return runChild(cfg, *child, stdout, stderr)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail("%v", err)
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	if *golden {
		written := map[string]bool{}
		for _, w := range names {
			if written[refCampaign(w)] {
				continue
			}
			written[refCampaign(w)] = true
			wc := cfg
			wc.workload = w
			if err := writeGolden(wc); err != nil {
				return fail("%s: %v", w, err)
			}
			fmt.Fprintf(stderr, "# wrote %s\n", goldenPath(cfg.goldenDir, w, cfg.seed))
		}
		return 0
	}
	return runBench(cfg, names, stdout, stderr)
}

// runBench runs the named workloads, each in its own child process,
// writes the result file, prints the report and, last, the one-line
// JSON summary.
func runBench(cfg runConfig, names []string, stdout, stderr io.Writer) int {
	start := time.Now()
	rf := resultFile{Env: detectEnv(), Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Workers: cfg.workers}
	for _, w := range names {
		wc := cfg
		wc.workload = w
		rf.Workloads = append(rf.Workloads, runWorkload(wc))
	}
	rf.TotalWallS = time.Since(start).Seconds()
	label := "all"
	if len(names) == 1 {
		label = names[0]
	}
	if cfg.trace {
		label += "-trace"
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d.json", label, cfg.seed))
	if err := writeJSON(path, rf); err != nil {
		fmt.Fprintf(stderr, "faultbench: %v\n", err)
		return 2
	}
	printReport(stdout, &rf)
	fmt.Fprintf(stdout, "# result written to %s\n", path)
	line, err := driverLine(rf.Workloads, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "faultbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, r := range rf.Workloads {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runWorkload resolves the workload's reference (computing it untimed
// when there is no golden) and runs the workload in a child process,
// whose peak RSS is the in-process workloads' peak_rss_mb.
func runWorkload(cfg runConfig) workloadResult {
	t0 := time.Now()
	res := workloadResult{Workload: cfg.workload}
	path, label, err := resolveReference(cfg)
	if err == nil {
		cfg.refPath = path
		var ps *os.ProcessState
		if ps, err = spawnChild(cfg, "workload", &res); err == nil {
			res.Reference = label
			if !cfg.trace && res.metric("peak_rss_mb") == nil {
				res.set("peak_rss_mb", maxRSSMiB(ps), nil)
			}
		}
	}
	if err != nil {
		res.attempt(err)
	}
	res.finish(cfg.trace)
	res.WallS = time.Since(t0).Seconds()
	return res
}

// runChild is a child process: it runs one workload (or the in-process
// evaluation) and prints its result as one JSON line.
func runChild(cfg runConfig, kind string, stdout, stderr io.Writer) int {
	var out any
	switch kind {
	case "workload":
		out = childWorkload(cfg)
	case "eval":
		ev, err := evalChild(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "faultbench: eval: %v\n", err)
			return 1
		}
		out = ev
	default:
		fmt.Fprintf(stderr, "faultbench: unknown child kind %q\n", kind)
		return 2
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "faultbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func childWorkload(cfg runConfig) *workloadResult {
	res := &workloadResult{Workload: cfg.workload}
	var want tally
	var err error
	if cfg.workload != paperEval {
		want, err = loadTally(cfg.refPath)
	}
	if err == nil {
		switch {
		case cfg.trace:
			res.TraceFile, err = runTraced(cfg, want, res)
		case cfg.workload == paperEval:
			err = runPaperEval(cfg, res)
		default:
			err = runInProcess(cfg, want, res)
		}
	}
	if err != nil {
		res.attempt(err)
	}
	return res
}

// spawnChild runs this binary as a child of the given kind with cfg's
// settings, decodes the JSON line it prints into out, and returns the
// child's process state (its rusage).
func spawnChild(cfg runConfig, kind string, out any) (*os.ProcessState, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", kind,
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace,
		"-workers", strconv.Itoa(cfg.workers),
		"-gomaxprocs", strconv.Itoa(cfg.gomaxprocs),
		"-faultcov", cfg.faultcov,
		"-golden", cfg.goldenDir,
		"-out", cfg.outDir,
		"-ref", cfg.refPath)
	cmd.Env = childEnv(cfg)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", kind, err)
	}
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	if err := json.Unmarshal(b, out); err != nil {
		return nil, fmt.Errorf("%s child printed no result: %w", kind, err)
	}
	return cmd.ProcessState, nil
}

// childEnv pins GOMAXPROCS in every process the benchmark starts.
func childEnv(cfg runConfig) []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.gomaxprocs))
}

func runCompare(specPath string, sides []string, stdout, stderr io.Writer) int {
	if len(sides) != 2 {
		fmt.Fprintln(stderr, "faultbench: -compare takes two sides, each a result file or a directory of them: A B")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err == nil {
		err = spec.validate()
	}
	var a, b []*resultFile
	if err == nil {
		a, err = loadRuns(sides[0])
	}
	if err == nil {
		b, err = loadRuns(sides[1])
	}
	var regressed bool
	if err == nil {
		regressed, err = compareResults(spec, a, b, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "faultbench: -compare: %v\n", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}
