package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseLineBenchResult(t *testing.T) {
	e, ok, err := parseLine("BenchmarkCampaign/n=1024/oracle-8  1  123456 ns/op  9.5e+04 faults/s  160 B/op  3 allocs/op")
	if !ok || err != nil {
		t.Fatalf("benchmark line not parsed: %v", err)
	}
	if e.Name != "Campaign/n=1024/oracle" {
		t.Errorf("name = %q, want Campaign/n=1024/oracle", e.Name)
	}
	if e.Iterations != 1 {
		t.Errorf("iterations = %d", e.Iterations)
	}
	if e.Metrics["ns/op"] != 123456 {
		t.Errorf("ns/op = %v", e.Metrics["ns/op"])
	}
	if e.Metrics["faults/s"] != 9.5e4 {
		t.Errorf("faults/s = %v, scientific notation mis-parsed", e.Metrics["faults/s"])
	}
	if e.Metrics["allocs/op"] != 3 {
		t.Errorf("allocs/op = %v", e.Metrics["allocs/op"])
	}
}

func TestParseLineSuffixStripping(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		// The plain GOMAXPROCS suffix goes.
		{"BenchmarkCampaign-8  10  5 ns/op", "Campaign"},
		// A sub-benchmark whose last segment legitimately ends in
		// -<digits> keeps it once the GOMAXPROCS suffix is stripped.
		{"BenchmarkObserver/w-2-8  10  5 ns/op", "Observer/w-2"},
		// A -<digits> tail in an earlier segment is part of the name.
		{"BenchmarkFoo-4/bar  10  5 ns/op", "Foo-4/bar"},
		// A last segment that is nothing but -<digits> is a name, not a
		// GOMAXPROCS suffix (go test never emits a bare dash segment).
		{"BenchmarkFoo/-8  10  5 ns/op", "Foo/-8"},
		// Non-numeric tails survive.
		{"BenchmarkFoo/bar-x  10  5 ns/op", "Foo/bar-x"},
		// Scientific notation in the iteration position is rejected,
		// not mis-parsed.
	}
	for _, tc := range cases {
		e, ok, err := parseLine(tc.in)
		if !ok || err != nil {
			t.Errorf("%q: not parsed: %v", tc.in, err)
			continue
		}
		if e.Name != tc.want {
			t.Errorf("%q: name = %q, want %q", tc.in, e.Name, tc.want)
		}
	}
}

func TestMissingNames(t *testing.T) {
	mk := func(names ...string) []Entry {
		out := make([]Entry, len(names))
		for i, n := range names {
			out[i] = Entry{Name: n}
		}
		return out
	}
	baseline := mk("Campaign/n=1024/oracle", "Session/n=1024/session+drop", "CampaignPRT/n=256/compiled")
	// Identical sets: clean.
	missing, added := missingNames(baseline, mk("CampaignPRT/n=256/compiled", "Session/n=1024/session+drop", "Campaign/n=1024/oracle"))
	if len(missing) != 0 || len(added) != 0 {
		t.Fatalf("identical sets: missing=%v added=%v", missing, added)
	}
	// A rename shows up as one missing + one added, sorted.
	missing, added = missingNames(baseline, mk("Campaign/n=1024/oracle", "Session/n=1024/renamed", "CampaignPRT/n=256/compiled"))
	if !reflect.DeepEqual(missing, []string{"Session/n=1024/session+drop"}) {
		t.Errorf("missing = %v", missing)
	}
	if !reflect.DeepEqual(added, []string{"Session/n=1024/renamed"}) {
		t.Errorf("added = %v", added)
	}
	// A pure addition is allowed (no missing names).
	missing, added = missingNames(baseline, append(mk("Extra/new"), baseline...))
	if len(missing) != 0 || !reflect.DeepEqual(added, []string{"Extra/new"}) {
		t.Errorf("pure addition: missing=%v added=%v", missing, added)
	}
}

func TestCompareEntries(t *testing.T) {
	old := []Entry{
		{Name: "Campaign/n=1024/compiled", Metrics: map[string]float64{"ns/op": 1000, "faults/s": 2e6, "zero": 0}},
		{Name: "Gone/only-in-old", Metrics: map[string]float64{"ns/op": 5}},
	}
	cur := []Entry{
		// Out of sorted order on purpose: the report must sort by name.
		{Name: "New/only-in-current", Metrics: map[string]float64{"ns/op": 7}},
		{Name: "Campaign/n=1024/compiled", Metrics: map[string]float64{"ns/op": 1100, "faults/s": 1.8e6, "zero": 3, "allocs/op": 2}},
	}
	lines := compareEntries(old, cur)
	want := []string{
		"  Campaign/n=1024/compiled: faults/s -10.0%, ns/op +10.0%, zero n/a",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("compareEntries = %q, want %q", lines, want)
	}
	// No shared names at all: an empty report, not a crash.
	if lines := compareEntries(old[1:], cur[:1]); len(lines) != 0 {
		t.Errorf("disjoint sets: %q", lines)
	}
}

func TestParseThreshold(t *testing.T) {
	for in, want := range map[string]float64{
		"0.5": 0.5, "50%": 0.5, "1": 1, "100%": 1, "0.02": 0.02, "2%": 0.02,
	} {
		got, err := parseThreshold(in)
		if err != nil || got != want {
			t.Errorf("parseThreshold(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "0", "0%", "-0.5", "1.5", "150%", "abc", "%", "NaN", "nan%", "Inf", "-Inf"} {
		if _, err := parseThreshold(in); err == nil {
			t.Errorf("parseThreshold(%q): expected an error", in)
		}
	}
}

func TestRegressions(t *testing.T) {
	old := []Entry{
		{Name: "A", Metrics: map[string]float64{"faults/s": 1e6}},
		{Name: "B", Metrics: map[string]float64{"faults/s": 1e6}},
		{Name: "C", Metrics: map[string]float64{"faults/s": 1e6}},
		{Name: "NoRate", Metrics: map[string]float64{"ns/op": 10}},
		{Name: "ZeroOld", Metrics: map[string]float64{"faults/s": 0}},
	}
	cur := []Entry{
		// Sorted-output check: listed out of order on purpose.
		{Name: "C", Metrics: map[string]float64{"faults/s": 2e6}},  // improvement
		{Name: "A", Metrics: map[string]float64{"faults/s": 3e5}},  // -70%: over a 50% limit
		{Name: "B", Metrics: map[string]float64{"faults/s": 6e5}},  // -40%: under it
		{Name: "NoRate", Metrics: map[string]float64{"ns/op": 99}}, // no faults/s either side
		{Name: "ZeroOld", Metrics: map[string]float64{"faults/s": 5}},
		{Name: "OnlyNew", Metrics: map[string]float64{"faults/s": 1}},
	}
	lines := regressions(old, cur, 0.5, nil)
	if len(lines) != 1 || !strings.Contains(lines[0], "A:") || !strings.Contains(lines[0], "-70.0%") {
		t.Errorf("regressions = %q, want exactly A at -70.0%%", lines)
	}
	// A tighter threshold catches B too; exactly-at-threshold does not
	// trip (the gate is strictly greater-than).
	if lines := regressions(old, cur, 0.3, nil); len(lines) != 2 {
		t.Errorf("threshold 0.3: %q, want A and B", lines)
	}
	if lines := regressions(old, cur, 0.4, nil); len(lines) != 1 {
		t.Errorf("threshold 0.4 (B sits exactly at -40%%): %q, want only A", lines)
	}
	if lines := regressions(old, cur, 0.9, nil); len(lines) != 0 {
		t.Errorf("generous threshold: %q, want none", lines)
	}
}

func TestParsePerBench(t *testing.T) {
	rules, err := parsePerBench("Parallel/n=256=0.3,Session=40%")
	if err != nil {
		t.Fatalf("parsePerBench: %v", err)
	}
	if len(rules) != 2 || rules[0].threshold != 0.3 || rules[1].threshold != 0.4 {
		t.Fatalf("rules = %+v", rules)
	}
	// The regex keeps its own '='s: only the last one splits.
	if !rules[0].re.MatchString("CampaignParallel/n=256/sink=unordered/w=16") {
		t.Error("rule 0 regex lost its '=' (split on the wrong '=')")
	}
	if rules[0].re.MatchString("CampaignParallel/n=1024") {
		t.Error("rule 0 regex matches the wrong n")
	}
	for _, in := range []string{
		"",              // empty entry
		"NoThreshold",   // no '=' at all
		"Bench=",        // empty threshold
		"=0.5",          // empty regex
		"Bench=1.5",     // threshold out of (0, 1]
		"Bench=abc",     // non-numeric threshold
		"a(=0.5",        // regex does not compile
		"Good=0.5,Bad=", // one bad entry poisons the list
		"Bench=NaN",     // NaN would turn the gate off
		"Bench=nan%",
		"Bench=Inf",
	} {
		if _, err := parsePerBench(in); err == nil {
			t.Errorf("parsePerBench(%q): expected an error", in)
		}
	}
}

func TestThresholdFor(t *testing.T) {
	rules, err := parsePerBench("Parallel=0.2,Campaign=0.7")
	if err != nil {
		t.Fatal(err)
	}
	// First match wins, even when a later rule also matches.
	if got := thresholdFor("CampaignParallel/n=256", 0.5, rules); got != 0.2 {
		t.Errorf("first-match threshold = %v, want 0.2", got)
	}
	if got := thresholdFor("Campaign/n=1024", 0.5, rules); got != 0.7 {
		t.Errorf("override threshold = %v, want 0.7", got)
	}
	// No match falls back to the global; a zero global means ungated.
	if got := thresholdFor("Session/n=1024", 0.5, rules); got != 0.5 {
		t.Errorf("fallback threshold = %v, want 0.5", got)
	}
	if got := thresholdFor("Session/n=1024", 0, rules); got != 0 {
		t.Errorf("ungated threshold = %v, want 0", got)
	}
}

func TestRegressionsPerBench(t *testing.T) {
	old := []Entry{
		{Name: "CampaignParallel/n=256/w=16", Metrics: map[string]float64{"faults/s": 1e6}},
		{Name: "Session/n=1024", Metrics: map[string]float64{"faults/s": 1e6}},
	}
	cur := []Entry{
		{Name: "CampaignParallel/n=256/w=16", Metrics: map[string]float64{"faults/s": 7e5}}, // -30%
		{Name: "Session/n=1024", Metrics: map[string]float64{"faults/s": 7e5}},              // -30%
	}
	rules, err := parsePerBench("Parallel/n=256=0.2")
	if err != nil {
		t.Fatal(err)
	}
	// The override holds Parallel to 20% while the global 50% lets the
	// same-sized Session drop pass.
	lines := regressions(old, cur, 0.5, rules)
	if len(lines) != 1 || !strings.Contains(lines[0], "CampaignParallel") {
		t.Errorf("override gate: %q, want only CampaignParallel", lines)
	}
	// Overrides without a global gate only what they match.
	lines = regressions(old, cur, 0, rules)
	if len(lines) != 1 || !strings.Contains(lines[0], "CampaignParallel") {
		t.Errorf("override-only gate: %q, want only CampaignParallel", lines)
	}
	// A loose override can also exempt a benchmark from a tight global.
	loose, err := parsePerBench("Parallel=90%")
	if err != nil {
		t.Fatal(err)
	}
	lines = regressions(old, cur, 0.2, loose)
	if len(lines) != 1 || !strings.Contains(lines[0], "Session") {
		t.Errorf("loosening override: %q, want only Session", lines)
	}
}

func TestParseLineRejectsNonBenchLines(t *testing.T) {
	for _, in := range []string{
		"",
		"PASS",
		"ok  \trepro\t1.234s",
		"goos: linux",
		"## E15 (ablation) — exact verify vs MISR-compressed verify",
		"BenchmarkBroken notanumber 5 ns/op",
		"BenchmarkNoMetrics 10",
		"BenchmarkOddFields 10 5", // metric value without a unit
	} {
		if _, ok, err := parseLine(in); ok || err != nil {
			t.Errorf("%q: unexpectedly parsed (err %v)", in, err)
		}
	}
	// A result line whose metric JSON cannot carry is refused, naming
	// the metric.
	for _, in := range []string{
		"BenchmarkCampaign-8 1 +Inf faults/s",
		"BenchmarkCampaign-8 1 5 ns/op NaN faults/s",
		"BenchmarkCampaign-8 1 -inf ns/op",
		"BenchmarkCampaign-8 1 1e400 faults/s", // past float64's range
	} {
		if _, ok, err := parseLine(in); ok || err == nil || !strings.Contains(err.Error(), "Campaign") {
			t.Errorf("%q: ok=%v err=%v, want a refusal naming the benchmark", in, ok, err)
		}
	}
}

// FuzzParseLine: parseLine never panics, never both accepts and
// refuses a line, and every line it accepts has finite metrics and
// encodes as JSON.
func FuzzParseLine(f *testing.F) {
	for _, s := range []string{
		"BenchmarkCampaign/n=1024/oracle-8  1  123456 ns/op  9.5e+04 faults/s  160 B/op  3 allocs/op",
		"BenchmarkCampaign-8  10  5 ns/op",
		"BenchmarkObserver/w-2-8  10  5 ns/op",
		"BenchmarkFoo-4/bar  10  5 ns/op",
		"BenchmarkFoo/-8  10  5 ns/op",
		"BenchmarkFoo/bar-x  10  5 ns/op",
		"",
		"PASS",
		"ok  \trepro\t1.234s",
		"goos: linux",
		"BenchmarkBroken notanumber 5 ns/op",
		"BenchmarkNoMetrics 10",
		"BenchmarkOddFields 10 5",
		"BenchmarkCampaign-8 1 +Inf faults/s",
		"BenchmarkCampaign-8 1 NaN faults/s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		e, ok, err := parseLine(line)
		if ok && err != nil {
			t.Fatalf("%q: accepted and refused (%v)", line, err)
		}
		if !ok {
			return
		}
		for m, v := range e.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q: accepted metric %s = %v", line, m, v)
			}
		}
		if _, err := json.Marshal(e); err != nil {
			t.Fatalf("%q: accepted entry does not encode: %v", line, err)
		}
	})
}
