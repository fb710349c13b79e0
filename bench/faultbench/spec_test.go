package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	if err := loadRepoSpec(t).validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *benchSpec)
		want   string
	}{
		{"bad metric name", func(s *benchSpec) { s.PerLayer[0].Name = "fault next" }, "is not"},
		{"one workload", func(s *benchSpec) { s.Workloads = s.Workloads[:1] }, "want 2 to 8"},
		{"nine workloads", func(s *benchSpec) {
			for len(s.Workloads) < 9 {
				s.Workloads = append(s.Workloads, s.Workloads[0])
			}
		}, "want 2 to 8"},
		{"seventeen end-to-end metrics", func(s *benchSpec) {
			for len(s.EndToEnd) < 17 {
				s.EndToEnd = append(s.EndToEnd, s.EndToEnd[0])
			}
		}, "want 1 to 16"},
		{"129 per-layer metrics", func(s *benchSpec) {
			for len(s.PerLayer) < 129 {
				s.PerLayer = append(s.PerLayer, s.PerLayer[0])
			}
		}, "want 1 to 128"},
		{"duplicate name", func(s *benchSpec) { s.PerLayer[1] = s.PerLayer[0] }, "used twice"},
		{"bound above 0.25", func(s *benchSpec) { b := 0.3; s.EndToEnd[0].Bound = &b }, "outside"},
		{"bound differs from the catalogue", func(s *benchSpec) {
			b := 0.2
			for i := range s.EndToEnd {
				if s.EndToEnd[i].Name == "setup_s" {
					s.EndToEnd[i].Bound = &b
				}
			}
		}, "catalogue says"},
		{"per-layer bound", func(s *benchSpec) { b := 0.1; s.PerLayer[0].Bound = &b }, "no bound"},
		{"unit mismatch", func(s *benchSpec) { s.PerLayer[0].Unit = "us" }, "faultbench measures"},
		{"absolute command", func(s *benchSpec) { s.Command = append(s.Command, "/tmp/x") }, "leaves the repository"},
		{"path out of the repository", func(s *benchSpec) { s.Paths = []string{"../bench"} }, "inside the repository"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := loadRepoSpec(t)
			c.mutate(s)
			err := s.validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("validate() = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// Every per-layer metric names the end-to-end metric and workload it
// moves, or says what it checks instead.
func TestLayerMetricsNameWhatTheyMove(t *testing.T) {
	saved := perLayer
	defer func() { perLayer = saved }()
	perLayer = append([]metricDef(nil), saved...)
	perLayer[0].moves = []move{{"faults_per_s", []string{"cf-nowhere"}}}
	if err := loadRepoSpec(t).validate(); err == nil || !strings.Contains(err.Error(), "not a workload") {
		t.Errorf("unknown workload accepted: %v", err)
	}
	perLayer[0].moves = []move{{"latency", []string{cfStream}}}
	if err := loadRepoSpec(t).validate(); err == nil || !strings.Contains(err.Error(), "not an end-to-end metric") {
		t.Errorf("unknown end-to-end metric accepted: %v", err)
	}
	perLayer[0].moves = nil
	if err := loadRepoSpec(t).validate(); err == nil || !strings.Contains(err.Error(), "names no end-to-end metric") {
		t.Errorf("metric moving nothing accepted: %v", err)
	}
}
