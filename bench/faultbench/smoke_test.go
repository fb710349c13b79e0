package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coverage"
)

// Toy-size runs of each in-process workload (64-cell memories, two
// timed campaigns): correct against their oracle reference, and every
// check failing against a corrupted one.  The bit-parallel reference,
// used for seeds without a golden, equals the oracle's.
func TestToyWorkloadsCheckOutputs(t *testing.T) {
	for _, w := range inProcess {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			cfg := runConfig{workload: w, seed: 1, campaigns: 2, workers: 2, size: toySize, outDir: dir}
			ref := filepath.Join(dir, "ref.json")
			if err := writeReference(cfg, coverage.EngineOracle, ref); err != nil {
				t.Fatal(err)
			}
			want, err := loadTally(ref)
			if err != nil {
				t.Fatal(err)
			}
			bitpar := filepath.Join(dir, "bitpar.json")
			if err := writeReference(cfg, coverage.EngineBitParallel, bitpar); err != nil {
				t.Fatal(err)
			}
			if got, err := loadTally(bitpar); err != nil || !got.equal(want) {
				t.Fatalf("bit-parallel reference differs from the oracle's (%v):\n%+v\n%+v", err, got, want)
			}

			res := &workloadResult{}
			if err := runInProcess(cfg, want, res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted != warmups+2 || res.Campaigns != 2 {
				t.Fatalf("against the oracle: %d of %d checks failed, %d timed campaigns (%v)",
					res.Failed, res.Attempted, res.Campaigns, res.Errors)
			}
			res.finish(false)
			if m := res.metric("faults_per_s"); m == nil || m.Value <= 0 {
				t.Errorf("faults_per_s not measured: %+v", m)
			}

			want.Stages[0].Detected++
			res = &workloadResult{}
			if err := runInProcess(cfg, want, res); err != nil {
				t.Fatal(err)
			}
			if res.failedFrac() != 1 {
				t.Errorf("against a corrupted golden: failed_frac = %g, want 1", res.failedFrac())
			}
		})
	}
}

// TestCompare compares sets of runs of setup_s, a gated metric whose
// bound is 25%.
func TestCompare(t *testing.T) {
	spec := loadRepoSpec(t)
	env := environment{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOARCH: "amd64", CPUModel: "cpu"}
	run := func(env environment, setup float64) *resultFile {
		r := workloadResult{Workload: cfStream, Correct: true, Attempted: 1}
		r.set("setup_s", setup, nil)
		return &resultFile{Env: env, Workloads: []workloadResult{r}}
	}
	runs := func(setups ...float64) []*resultFile {
		var rs []*resultFile
		for _, s := range setups {
			rs = append(rs, run(env, s))
		}
		return rs
	}
	var out bytes.Buffer
	if regressed, err := compareResults(spec, runs(1), runs(1.2), &out); err != nil || regressed {
		t.Errorf("20%% slower within a 25%% bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if regressed, err := compareResults(spec, runs(0.99, 1, 1.01), runs(1.29, 1.3, 1.31), &out); err != nil || !regressed {
		t.Errorf("30%% slower beyond a 25%% bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	other := env
	other.CPUModel = "another cpu"
	if _, err := compareResults(spec, runs(1), []*resultFile{run(other, 1)}, &out); err == nil || !strings.Contains(err.Error(), "environments differ") {
		t.Errorf("results from different CPUs compared: %v", err)
	}
	out.Reset()
	if regressed, _ := compareResults(spec, runs(0.5, 1, 1.5), runs(1.3), &out); regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("run-to-run spread wider than the bound not reported unresolved:\n%s", out.String())
	}
	out.Reset()
	if regressed, _ := compareResults(spec, runs(0.5, 1, 1.5), runs(0.2, 0.3, 0.4), &out); regressed || !strings.Contains(out.String(), "better") {
		t.Errorf("every run of B faster than every run of A not reported better:\n%s", out.String())
	}

	// A run that failed its output checks is not compared, whichever side
	// it is on, however fast it was.
	failed := run(env, 0.5)
	failed.Workloads[0].Correct, failed.Workloads[0].Failed = false, 1
	if _, err := compareResults(spec, runs(1), append(runs(1), failed), &out); err == nil || !strings.Contains(err.Error(), "output checks") {
		t.Errorf("failed B compared: %v", err)
	}
	if _, err := compareResults(spec, []*resultFile{failed}, runs(1), &out); err == nil || !strings.Contains(err.Error(), "output checks") {
		t.Errorf("failed A compared: %v", err)
	}

	// A workload or metric of A that B lacks is a regression.
	noWorkload := run(env, 1)
	noWorkload.Workloads[0].Workload = womSession
	noMetric := run(env, 1)
	noMetric.Workloads[0].Metrics = nil
	for name, b := range map[string]*resultFile{"workload": noWorkload, "metric": noMetric} {
		out.Reset()
		if regressed, err := compareResults(spec, runs(1), []*resultFile{b}, &out); err != nil || !regressed || !strings.Contains(out.String(), "MISSING") {
			t.Errorf("B without the %s: regressed=%v err=%v\n%s", name, regressed, err, out.String())
		}
	}
}

// A metric with no samples is not measured: it is left out of the result
// and of the summary line, and the run fails a check for it.
func TestUnmeasuredMetricFailsTheRun(t *testing.T) {
	r := workloadResult{Workload: cfStream}
	r.attempt(nil)
	r.setCampaigns(nil, nil)
	r.set("setup_s", 0.01, nil)
	r.set("peak_rss_mb", 20, nil)
	r.finish(false)
	if r.Correct || r.metric("campaign_s_p50") != nil || r.metric("faults_per_s") != nil {
		t.Fatalf("campaign metrics of no campaigns recorded: correct=%v %+v", r.Correct, r.Metrics)
	}
	line, err := driverLine([]workloadResult{r}, false)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(line); strings.Contains(s, "faults_per_s") || !strings.Contains(s, `"correct":false`) {
		t.Errorf("summary line reports an unmeasured metric or a correct run: %s", s)
	}
}
