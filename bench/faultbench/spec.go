package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
)

// The metric catalogue and the BENCHMARK.json schema.  The catalogue is
// what faultbench measures and prints; BENCHMARK.json is the contract
// a run is judged by.  validate() holds the two equal, so neither can
// drift from the other.

// Workload names, in run order.
const (
	cfStream   = "cf-stream"
	cfDurable  = "cf-durable"
	womSession = "wom-session"
	paperEval  = "paper-eval"
)

var workloadNames = []string{cfStream, cfDurable, womSession, paperEval}

// move names an end-to-end metric, gated or reported only, that a
// per-layer metric should move, and the workloads on which it should
// move it.
type move struct {
	metric    string
	workloads []string
}

// metricDef is one catalogue entry.  End-to-end metrics carry the bound
// by which they may worsen; per-layer metrics carry the end-to-end
// metrics they should move, or, for the diagnostics that move none, a
// note saying what they check instead.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              []move
	note               string
}

// endToEnd are the metrics BENCHMARK.json gates.  The shared 2-vCPU host
// the benchmark was built on slows every campaign by up to 2× for tens
// of seconds to minutes at a time, so the gated throughput is that of
// the fastest campaign of a run, which such slowdowns rarely reach, and
// the timing bounds are the widest a gate may have (see bench/README.md).
var endToEnd = []metricDef{
	{name: "faults_per_s", unit: "faults/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.10},
}

// reportedOnly are end-to-end metrics every untraced run measures and
// prints but BENCHMARK.json does not gate: the median and tail campaign
// times follow the host's slowdowns, and across ten seeds their spread
// reached 31%, beyond the largest bound (25%) a gate may have.
var reportedOnly = []metricDef{
	{name: "campaign_s_p50", unit: "s", better: "lower"},
	{name: "campaign_s_p75", unit: "s", better: "lower"},
}

var (
	allWorkloads = workloadNames
	cfBoth       = []string{cfStream, cfDurable}
	inProcess    = []string{cfStream, cfDurable, womSession}
)

// evalIDs are the experiment catalogue ids of cmd/faultcov, in
// presentation order (see evaluation in eval.go).
var evalIDs = []string{"fig1a", "fig1b", "fig2", "e4", "e5", "e6", "e7", "e8", "e9",
	"e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17"}

// replayFamilies are the kernel families sim.replay_ps_per_op_machine
// is split by, with the workload that hosts each.
var replayFamilies = []struct {
	name      string
	workloads []string
}{
	{"width1", cfBoth},
	{"width1_affine", cfBoth},
	{"generic", []string{womSession}},
	{"generic_affine", []string{womSession}},
	{"observer", []string{womSession}},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	fps := func(ws ...string) []move { return []move{{"faults_per_s", ws}} }
	p50 := func(ws ...string) []move { return []move{{"campaign_s_p50", ws}} }
	ms := []metricDef{
		{name: "fault.next_ns_per_fault", unit: "ns", better: "lower", moves: fps(cfBoth...)},
		{name: "fault.universe_build_s", unit: "s", better: "lower", moves: []move{{"setup_s", []string{womSession}}}},
		{name: "fault.collapse_ns_per_fault", unit: "ns", better: "lower", moves: fps(cfStream, womSession)},
		{name: "fault.collapse_ratio", unit: "ratio", better: "lower", moves: fps(cfStream, womSession)},
		{name: "fault.expand_ns_per_fault", unit: "ns", better: "lower", moves: fps(cfStream, womSession)},
		{name: "sim.record_s", unit: "s", better: "lower", moves: []move{{"setup_s", allWorkloads}, {"campaign_s_p50", []string{paperEval}}}},
		{name: "sim.compile_s", unit: "s", better: "lower", moves: []move{{"setup_s", allWorkloads}, {"campaign_s_p50", []string{paperEval}}}},
		{name: "sim.program_ops", unit: "count", better: "lower", moves: fps(inProcess...)},
		{name: "sim.fused_ops", unit: "count", better: "higher", moves: fps(inProcess...)},
		{name: "sim.trimmed_ops", unit: "count", better: "higher", moves: fps(inProcess...)},
	}
	for _, f := range replayFamilies {
		ms = append(ms, metricDef{name: "sim.replay_ps_per_op_machine." + f.name, unit: "ps", better: "lower", moves: fps(f.workloads...)})
	}
	ms = append(ms,
		metricDef{name: "sim.batch_fill", unit: "ratio", better: "higher", moves: fps(womSession)},
		metricDef{name: "sim.kernel_share", unit: "ratio", better: "higher", moves: p50(cfDurable)},
		metricDef{name: "sim.source_wait_share", unit: "ratio", better: "lower", moves: p50(cfDurable)},
		metricDef{name: "sim.sink_wait_share", unit: "ratio", better: "lower", moves: p50(cfDurable)},
		metricDef{name: "sim.cache_hit_frac", unit: "ratio", better: "higher", moves: p50(inProcess...)},
		metricDef{name: "coverage.prepare_s", unit: "s", better: "lower", moves: p50(paperEval, womSession)},
		metricDef{name: "coverage.merge_s", unit: "s", better: "lower", moves: p50(cfStream)},
		metricDef{name: "coverage.survivor_frac", unit: "ratio", better: "lower", moves: fps(cfStream)},
		metricDef{name: "coverage.residual_frac", unit: "ratio", better: "lower",
			note: "checks that the layer self times add up to single-worker Plan.Run wall time"},
		metricDef{name: "checkpoint.writes", unit: "count", better: "lower", moves: p50(cfDurable)},
		metricDef{name: "checkpoint.bytes", unit: "bytes", better: "lower", moves: p50(cfDurable)},
		metricDef{name: "checkpoint.write_ms", unit: "ms", better: "lower", moves: p50(cfDurable)},
		metricDef{name: "checkpoint.load_ms", unit: "ms", better: "lower", moves: p50(cfDurable)},
	)
	for _, id := range evalIDs {
		ms = append(ms, metricDef{name: "repro.experiment_s." + id, unit: "s", better: "lower", moves: p50(paperEval)})
	}
	ms = append(ms,
		metricDef{name: "repro.cache_hit_frac", unit: "ratio", better: "higher", moves: p50(paperEval)},
		metricDef{name: "process.cpu_per_wall", unit: "ratio", better: "higher", moves: fps(cfStream)},
		metricDef{name: "process.gc_cpu_frac", unit: "ratio", better: "lower",
			moves: []move{{"faults_per_s", allWorkloads}, {"peak_rss_mb", allWorkloads}}},
		metricDef{name: "process.alloc_bytes_per_fault", unit: "bytes", better: "lower",
			moves: []move{{"faults_per_s", allWorkloads}, {"peak_rss_mb", allWorkloads}}},
		metricDef{name: "trace.overhead_frac", unit: "ratio", better: "lower",
			note: "the traced run's own cost; the end-to-end metrics come from untraced runs"},
	)
	return ms
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks the spec's shape and that it describes exactly the
// workloads and metrics faultbench measures.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside [1, 60]", s.RunSeconds)
	}
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1 to 32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q is longer than 200 or leaves the repository", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths, want 1 to 16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q is not a relative [A-Za-z0-9_./-]{1,200} path inside the repository", p)
		}
	}
	seen := map[string]bool{}
	unique := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q is not [A-Za-z0-9_.-]{1,64} starting with a letter or digit", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for i, w := range s.Workloads {
		if err := unique(w.Name); err != nil {
			return err
		}
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			return fmt.Errorf("workload %d is %q, faultbench runs %v", i, w.Name, workloadNames)
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d metrics, faultbench measures %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if err := unique(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("%s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				return fmt.Errorf("%s: better is %q, want higher or lower", m.Name, m.Better)
			}
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				return fmt.Errorf("%s metric %d is %s [%s, %s], faultbench measures %s [%s, %s]",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			switch {
			case bounded && m.Bound == nil:
				return fmt.Errorf("%s: no bound", m.Name)
			case bounded && (*m.Bound <= 0 || *m.Bound > 0.25):
				return fmt.Errorf("%s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
			case bounded && *m.Bound != d.bound:
				return fmt.Errorf("%s: bound %g, catalogue says %g", m.Name, *m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				return fmt.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
		return nil
	}
	if err := check("end_to_end", s.EndToEnd, endToEnd, true); err != nil {
		return err
	}
	if err := check("per_layer", s.PerLayer, perLayer, false); err != nil {
		return err
	}
	setup := s.bound("setup_s")
	if setup == 0 {
		return fmt.Errorf("no setup_s end-to-end metric")
	}
	for _, m := range s.EndToEnd {
		if *m.Bound > setup {
			return fmt.Errorf("%s has a larger bound (%g) than setup_s (%g)", m.Name, *m.Bound, setup)
		}
	}
	endToEndNames := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, reportedOnly) {
		endToEndNames[d.name] = true
	}
	for _, d := range perLayer {
		if len(d.moves) == 0 && d.note == "" {
			return fmt.Errorf("%s names no end-to-end metric it moves", d.name)
		}
		for _, mv := range d.moves {
			if !endToEndNames[mv.metric] {
				return fmt.Errorf("%s moves %q, which is not an end-to-end metric", d.name, mv.metric)
			}
			if len(mv.workloads) == 0 {
				return fmt.Errorf("%s moves %s on no workload", d.name, mv.metric)
			}
			for _, w := range mv.workloads {
				if !isWorkload(w) {
					return fmt.Errorf("%s moves %s on %q, which is not a workload", d.name, mv.metric, w)
				}
			}
		}
	}
	return nil
}

// bound returns the end-to-end metric's bound (0 when there is none).
func (s *benchSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name && m.Bound != nil {
			return *m.Bound
		}
	}
	return 0
}

func isWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// metricUnit returns the catalogue unit of a metric name.
func metricUnit(name string) string {
	for _, d := range slices.Concat(endToEnd, reportedOnly, perLayer) {
		if d.name == name {
			return d.unit
		}
	}
	panic("faultbench: metric " + name + " is not in the catalogue")
}
