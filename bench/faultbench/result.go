package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// environment is what a result was measured on; -compare refuses to
// compare results whose environments differ.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func detectEnv() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricValue is one measured metric: the reported value and, where it
// summarizes a distribution, the samples behind it.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the sample count behind Value and Beyond, for a percentile,
	// how many samples lie above it.
	N       int       `json:"n,omitempty"`
	Beyond  int       `json:"beyond,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is one workload's outcome in one run.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Reference says where the output checks' reference came from.
	Reference string `json:"reference"`
	// Campaigns is the timed-campaign count behind every percentile.
	Campaigns int `json:"campaigns"`
	// WallS is this workload's share of the run's time budget: set-up,
	// reference resolution and the child process included.
	WallS     float64       `json:"wall_s"`
	Metrics   []metricValue `json:"metrics"`
	TraceFile string        `json:"trace_file,omitempty"`
}

// resultFile is what one faultbench run writes under the output
// directory: the environment, the run's budget and every workload's
// result.
type resultFile struct {
	Env        environment      `json:"env"`
	Seed       int64            `json:"seed"`
	Trace      bool             `json:"trace"`
	Seconds    float64          `json:"seconds"`
	Workers    int              `json:"workers"`
	TotalWallS float64          `json:"total_wall_s"`
	Workloads  []workloadResult `json:"workloads"`
}

const maxErrors = 5

// attempt records one checked operation.
func (r *workloadResult) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, err.Error())
		}
	}
}

func (r *workloadResult) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// set records a metric.  A value that is not finite, such as the median
// of no samples, is no measurement: it is left out, and finish reports
// the metric as not measured.
func (r *workloadResult) set(name string, v float64, samples []float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m := metricValue{Name: name, Unit: metricUnit(name), Value: v, N: len(samples), Samples: samples}
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i] = m
			return
		}
	}
	r.Metrics = append(r.Metrics, m)
}

// setCampaigns records the timed-campaign metrics from per-campaign wall
// times (s) and throughputs (faults/s).  faults_per_s is the throughput
// of the fastest campaign: other load on a shared host only ever slows a
// campaign down, so the fastest one is the least disturbed measure of
// the program's own cost.
func (r *workloadResult) setCampaigns(walls, rates []float64) {
	r.Campaigns = len(walls)
	r.set("faults_per_s", percentile(rates, 100), rates)
	r.set("campaign_s_p50", median(walls), walls)
	p75 := percentile(walls, 75)
	r.set("campaign_s_p75", p75, walls)
	if m := r.metric("campaign_s_p75"); m != nil {
		m.Beyond = beyond(walls, p75)
	}
}

func (r *workloadResult) metric(name string) *metricValue {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	return nil
}

// contract returns the metrics BENCHMARK.json lists for a run.
func contract(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// finish checks that every metric the run promises is present, counting
// each missing one as a failed check, and orders the metrics as the
// catalogue does: the contract's first, then the reported-only ones.
func (r *workloadResult) finish(trace bool) {
	want := contract(trace)
	if !trace {
		want = slices.Concat(want, reportedOnly)
	}
	ordered := make([]metricValue, 0, len(want))
	for _, d := range want {
		m := r.metric(d.name)
		if m == nil {
			r.attempt(fmt.Errorf("metric %s was not measured", d.name))
			continue
		}
		ordered = append(ordered, *m)
	}
	r.Metrics = ordered
	r.Correct = r.Attempted > 0 && r.Failed == 0
}

// driverLine is the one-line JSON summary printed last: correctness,
// attempted and failed operations, and every metric BENCHMARK.json lists
// for the run, by name; a metric that was not measured is left out, and
// the line then says correct=false.  A run over several workloads
// prefixes each metric with its workload.
func driverLine(rs []workloadResult, trace bool) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, d := range contract(trace) {
			m := r.metric(d.name)
			if m == nil {
				continue
			}
			name := m.Name
			if len(rs) > 1 {
				name = r.Workload + "." + name
			}
			out.Metrics[name] = val{m.Value, m.Unit}
		}
	}
	return json.Marshal(out)
}

// printReport prints a run's results for people: one line per metric with
// its unit and sample count, the output-check outcome, and the budget.
func printReport(w io.Writer, rf *resultFile) {
	e := rf.Env
	fmt.Fprintf(w, "# faultbench seed=%d trace=%v seconds=%g workers=%d | %s, %d CPU, GOMAXPROCS=%d, %s/%s\n",
		rf.Seed, rf.Trace, rf.Seconds, rf.Workers, e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GOARCH)
	for _, r := range rf.Workloads {
		campaigns := ""
		if r.Campaigns > 0 {
			campaigns = fmt.Sprintf(", %d timed campaigns", r.Campaigns)
		}
		fmt.Fprintf(w, "# %s: correct=%v failed_frac=%g (%d of %d checks failed)%s, reference: %s\n",
			r.Workload, r.Correct, r.failedFrac(), r.Failed, r.Attempted, campaigns, r.Reference)
		for _, e := range r.Errors {
			fmt.Fprintf(w, "#   check failed: %s\n", e)
		}
		for _, m := range r.Metrics {
			line := fmt.Sprintf("%-12s %-44s %14.6g %-8s", r.Workload, m.Name, m.Value, m.Unit)
			if m.N > 1 {
				q1, _, q3 := quartiles(m.Samples)
				line += fmt.Sprintf(" n=%d p25=%.6g p75=%.6g", m.N, q1, q3)
			}
			if m.Beyond > 0 {
				line += fmt.Sprintf(" (%d samples beyond)", m.Beyond)
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
		if r.TraceFile != "" {
			fmt.Fprintf(w, "# %s: spans written to %s\n", r.Workload, r.TraceFile)
		}
	}
	parts := make([]string, len(rf.Workloads))
	for i, r := range rf.Workloads {
		parts[i] = fmt.Sprintf("%s %.1fs", r.Workload, r.WallS)
	}
	fmt.Fprintf(w, "# budget: %s; total %.1fs\n", strings.Join(parts, ", "), rf.TotalWallS)
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, append(b, '\n'))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
