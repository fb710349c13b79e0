// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON array on stdout, so CI can archive the perf
// trajectory (faults/s, ns/op, allocs/op per engine) across PRs:
//
//	go test -run xxx -bench BenchmarkCampaign -benchmem . | benchjson > BENCH_campaign.json
//
// Each benchmark line becomes one object:
//
//	{"name": "Campaign/n=1024/compiled", "iterations": 1,
//	 "metrics": {"ns/op": 12345678, "faults/s": 2.3e6, "allocs/op": 42}}
//
// Non-benchmark lines (the tables the benches print, PASS/ok trailers)
// are ignored.
// With -assert-names BASELINE.json, the parsed result is additionally
// diffed against the baseline's benchmark *name set*: any baseline
// name missing from stdin fails the run, so a renamed or deleted
// benchmark breaks CI loudly instead of silently archiving a shrunken
// perf artifact.  New names are reported but allowed (they belong in
// the next baseline refresh).
//
// With -compare OLD.json, every metric shared by a benchmark present
// in both the old artifact and stdin's results is reported to stderr
// as a signed percentage delta (current vs old).  By itself the report
// is advisory — single-shot CI benches on shared runners are too noisy
// to gate on — but it puts the perf trajectory in the build log where
// a regression is one scroll away instead of one artifact-diff away.
//
// -max-regress THRESHOLD turns the faults/s comparison into a gate:
// any shared benchmark whose faults/s dropped by more than the
// threshold (a fraction like 0.5, or a percentage like 50%) fails the
// run.  Only faults/s is gated — it is the throughput figure the
// engines optimize for; ns/op and allocs/op stay advisory.  Pick a
// generous threshold for single-shot CI benches: the gate is there to
// catch order-of-magnitude cliffs (an accidental oracle fallback, a
// serialization bottleneck), not 10% noise.
//
// -max-regress-per-bench 'REGEX=THRESHOLD[,REGEX=THRESHOLD...]'
// overrides the global threshold for matching benchmark names (first
// match wins; each entry splits on its last '=', so regexes like
// "Parallel/n=256" work unquoted).  Without -max-regress, only the
// benchmarks an override matches are gated — the tool's way of saying
// "this benchmark is the one this PR optimized; hold it tighter".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkCampaign/n=1024/oracle-8  1  123456 ns/op  9.5e+04 faults/s  160 B/op  3 allocs/op
//
// and reports ok=false for anything else.  A result line with a NaN or
// infinite metric is refused with an error: JSON cannot carry the
// value, and no regression limit can compare it.
func parseLine(line string) (e Entry, ok bool, err error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false, nil
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the trailing -GOMAXPROCS suffix go test appends to the
	// LAST path segment (and only there): the dash must sit inside the
	// last segment, after its first character, with nothing but digits
	// behind it.  A -<digits> tail in an earlier segment, or a segment
	// that is nothing but -<digits>, is part of the benchmark's own
	// name and survives.
	if i := strings.LastIndexByte(name, '-'); i > strings.LastIndexByte(name, '/')+1 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	e = Entry{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if math.IsNaN(v) || math.IsInf(v, 0) { // also a value past float64's range
			return Entry{}, false, fmt.Errorf("metric %s of %s is %s, not a finite number", fields[i+1], name, fields[i])
		}
		if err != nil {
			return Entry{}, false, nil
		}
		e.Metrics[fields[i+1]] = v
	}
	return e, len(e.Metrics) > 0, nil
}

// missingNames returns the baseline names absent from the current
// entries, sorted, plus the names the baseline has never seen.
func missingNames(baseline, current []Entry) (missing, added []string) {
	have := make(map[string]bool, len(current))
	for _, e := range current {
		have[e.Name] = true
	}
	known := make(map[string]bool, len(baseline))
	for _, e := range baseline {
		known[e.Name] = true
		if !have[e.Name] {
			missing = append(missing, e.Name)
		}
	}
	for _, e := range current {
		if !known[e.Name] {
			added = append(added, e.Name)
		}
	}
	sort.Strings(missing)
	sort.Strings(added)
	return missing, added
}

// compareEntries formats per-metric percentage deltas of current vs
// old for every benchmark name the two sets share, one line per
// benchmark, names and metrics in sorted order.  Metrics only one side
// has are skipped; an old value of zero reports "n/a" (no meaningful
// ratio).
func compareEntries(old, current []Entry) []string {
	prev := make(map[string]Entry, len(old))
	for _, e := range old {
		prev[e.Name] = e
	}
	var lines []string
	sorted := append([]Entry(nil), current...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, e := range sorted {
		p, ok := prev[e.Name]
		if !ok {
			continue
		}
		names := make([]string, 0, len(e.Metrics))
		for m := range e.Metrics {
			if _, ok := p.Metrics[m]; ok {
				names = append(names, m)
			}
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, m := range names {
			if p.Metrics[m] == 0 {
				parts[i] = fmt.Sprintf("%s n/a", m)
				continue
			}
			parts[i] = fmt.Sprintf("%s %+.1f%%", m, 100*(e.Metrics[m]-p.Metrics[m])/p.Metrics[m])
		}
		lines = append(lines, fmt.Sprintf("  %s: %s", e.Name, strings.Join(parts, ", ")))
	}
	return lines
}

// parseThreshold parses a -max-regress value: a fraction ("0.5") or a
// percentage ("50%"), either way a number in (0, 1] once normalized.
func parseThreshold(s string) (float64, error) {
	raw := strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("bad threshold %q: %v", s, err)
	}
	if raw != s {
		v /= 100
	}
	if !(v > 0 && v <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("threshold %q is outside (0%%, 100%%]", s)
	}
	return v, nil
}

// perBenchRule binds a benchmark-name regexp to its own regression
// threshold, overriding the global -max-regress value.
type perBenchRule struct {
	re        *regexp.Regexp
	threshold float64
}

// parsePerBench parses the -max-regress-per-bench value: comma-
// separated REGEX=THRESHOLD overrides.  Each entry is split on its
// LAST '=' so sub-benchmark regexes like "Parallel/n=256" keep their
// own '='s; thresholds take the same forms as -max-regress.
func parsePerBench(s string) ([]perBenchRule, error) {
	var rules []perBenchRule
	for _, part := range strings.Split(s, ",") {
		eq := strings.LastIndexByte(part, '=')
		if eq <= 0 || eq == len(part)-1 {
			return nil, fmt.Errorf("bad override %q: want REGEX=THRESHOLD", part)
		}
		re, err := regexp.Compile(part[:eq])
		if err != nil {
			return nil, fmt.Errorf("bad override %q: %v", part, err)
		}
		th, err := parseThreshold(part[eq+1:])
		if err != nil {
			return nil, fmt.Errorf("bad override %q: %v", part, err)
		}
		rules = append(rules, perBenchRule{re, th})
	}
	return rules, nil
}

// thresholdFor resolves a benchmark's effective regression limit: the
// first matching per-bench override wins, else the global threshold.
// Zero means the benchmark is not gated (a global of 0 with overrides
// gates only the benchmarks an override matches).
func thresholdFor(name string, global float64, rules []perBenchRule) float64 {
	for _, r := range rules {
		if r.re.MatchString(name) {
			return r.threshold
		}
	}
	return global
}

// regressions returns one line per benchmark shared by old and current
// whose faults/s dropped by more than its effective threshold (a
// fraction of the old value), sorted by name.
func regressions(old, current []Entry, global float64, rules []perBenchRule) []string {
	prev := make(map[string]Entry, len(old))
	for _, e := range old {
		prev[e.Name] = e
	}
	var lines []string
	sorted := append([]Entry(nil), current...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, e := range sorted {
		p, ok := prev[e.Name]
		if !ok {
			continue
		}
		was, now := p.Metrics["faults/s"], e.Metrics["faults/s"]
		if was <= 0 {
			continue
		}
		if _, ok := e.Metrics["faults/s"]; !ok {
			continue
		}
		threshold := thresholdFor(e.Name, global, rules)
		if threshold <= 0 {
			continue
		}
		if drop := (was - now) / was; drop > threshold {
			lines = append(lines, fmt.Sprintf("  %s: faults/s %.3g → %.3g (-%.1f%%, limit -%.1f%%)",
				e.Name, was, now, 100*drop, 100*threshold))
		}
	}
	return lines
}

func main() {
	assertNames := flag.String("assert-names", "", "baseline JSON file; exit nonzero when any of its benchmark names is missing from stdin's results")
	compare := flag.String("compare", "", "old benchjson artifact; print per-metric percentage deltas of the current results against it on stderr (advisory unless -max-regress is set)")
	maxRegress := flag.String("max-regress", "", "with -compare: exit nonzero when any shared benchmark's faults/s dropped by more than this fraction (\"0.5\") or percentage (\"50%\")")
	maxRegressPerBench := flag.String("max-regress-per-bench", "", "comma-separated REGEX=THRESHOLD overrides of -max-regress for matching benchmark names (first match wins), e.g. 'Parallel/n=256=0.3,Session=40%'")
	flag.Parse()
	var threshold float64
	if *maxRegress != "" {
		if *compare == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -max-regress requires -compare")
			os.Exit(2)
		}
		var err error
		if threshold, err = parseThreshold(*maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -max-regress: %v\n", err)
			os.Exit(2)
		}
	}
	var perBench []perBenchRule
	if *maxRegressPerBench != "" {
		if *compare == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -max-regress-per-bench requires -compare")
			os.Exit(2)
		}
		var err error
		if perBench, err = parsePerBench(*maxRegressPerBench); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -max-regress-per-bench: %v\n", err)
			os.Exit(2)
		}
	}
	var entries []Entry
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for n := 1; sc.Scan(); n++ {
		e, ok, err := parseLine(sc.Text())
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: stdin line %d refused: %v\n  %s\n", n, err, sc.Text())
			os.Exit(1)
		}
		if ok {
			entries = append(entries, e)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		// An empty array is never a useful perf artifact — it means the
		// bench regex matched nothing (typically a benchmark rename).
		// Fail loudly so CI archives a real trajectory or nothing.
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin (renamed benchmark? wrong -bench regex?)")
		os.Exit(1)
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			// A first run with no committed artifact should not fail, just
			// say why there is no comparison (the regress gate has nothing
			// to gate against either).
			fmt.Fprintf(os.Stderr, "benchjson: compare: %v (skipping delta report)\n", err)
		} else {
			var old []Entry
			if err := json.Unmarshal(raw, &old); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: compare %s: %v (skipping delta report)\n", *compare, err)
			} else {
				if lines := compareEntries(old, entries); len(lines) > 0 {
					fmt.Fprintf(os.Stderr, "benchjson: deltas vs %s:\n", *compare)
					for _, l := range lines {
						fmt.Fprintln(os.Stderr, l)
					}
				}
				if threshold > 0 || len(perBench) > 0 {
					if lines := regressions(old, entries, threshold, perBench); len(lines) > 0 {
						fmt.Fprintf(os.Stderr, "benchjson: faults/s regressed beyond its limit:\n")
						for _, l := range lines {
							fmt.Fprintln(os.Stderr, l)
						}
						os.Exit(1)
					}
				}
			}
		}
	}
	if *assertNames != "" {
		raw, err := os.ReadFile(*assertNames)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			os.Exit(1)
		}
		var baseline []Entry
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", *assertNames, err)
			os.Exit(1)
		}
		missing, added := missingNames(baseline, entries)
		for _, n := range added {
			fmt.Fprintf(os.Stderr, "benchjson: note: new benchmark %q not in baseline %s\n", n, *assertNames)
		}
		if len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d baseline benchmark(s) missing from the results (renamed or deleted?):\n", len(missing))
			for _, n := range missing {
				fmt.Fprintf(os.Stderr, "  %s\n", n)
			}
			os.Exit(1)
		}
	}
}
