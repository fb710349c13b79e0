package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro"
	"repro/internal/coverage"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// paper-eval: the full evaluation, one `faultcov -format csv -seed S`
// process per campaign, every one starting cold as a CLI user does.

// evaluation mirrors cmd/faultcov's experiment catalogue: ids and
// parameters in presentation order.  The eval child renders it as
// faultcov -format csv does and compares the bytes with the reference
// CSV, so a drift between the two fails the output check.
var evaluation = []struct {
	id    string
	build func() *report.Table
}{
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
	{"e16", func() *report.Table { return repro.ExperimentMISRAliasing([]int{64, 256}, []int{1, 2, 4, 8, 16}) }},
	{"e17", func() *report.Table { return repro.ExperimentExhaustiveCoupling([]int{48, 96}, 64) }},
}

// evalResult is what the eval child reports: the evaluation run
// in-process from a cold start, with a telemetry registry attached.
type evalResult struct {
	// Match reports whether the rendered tables equal the reference CSV.
	Match bool `json:"match"`
	// Presented is the evaluation's work: faults presented to campaign
	// stages, as the telemetry registry counts them.
	Presented   uint64             `json:"presented"`
	Experiment  map[string]float64 `json:"experiment_s"`
	CacheHits   uint64             `json:"cache_hits"`
	CacheMisses uint64             `json:"cache_misses"`
	CPUPerWall  float64            `json:"cpu_per_wall"`
	GCCPUFrac   float64            `json:"gc_cpu_frac"`
	AllocBytes  uint64             `json:"alloc_bytes"`
}

// evalChild runs the whole evaluation in this (fresh) process as
// faultcov -format csv -seed S -workers W would, checking its tables
// against the reference CSV when the config names one.
func evalChild(cfg runConfig) (*evalResult, error) {
	var want []byte
	if cfg.refPath != "" {
		var err error
		if want, err = os.ReadFile(cfg.refPath); err != nil {
			return nil, err
		}
	}
	coverage.SetDefaultWorkers(cfg.workers)
	repro.SetSampleSeed(cfg.seed)
	reg := telemetry.NewRegistry()
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)
	res := &evalResult{Experiment: map[string]float64{}}
	var out bytes.Buffer
	p0 := readProc()
	for _, e := range evaluation {
		t0 := time.Now()
		t := e.build()
		res.Experiment[e.id] = time.Since(t0).Seconds()
		t.CSV(&out)
		out.WriteByte('\n')
	}
	var d procDelta
	d.add(p0, readProc())
	res.Match = cfg.refPath == "" || bytes.Equal(out.Bytes(), want)
	res.Presented = reg.Snapshot().Faults
	res.CacheHits, res.CacheMisses, _ = coverage.SharedProgramCache().Stats()
	res.CPUPerWall, res.GCCPUFrac, res.AllocBytes = d.cpuPerWall(), d.gcFrac(), d.alloc
	return res, nil
}

// runEval spawns an eval child and checks its output.
func runEval(cfg runConfig) (*evalResult, error) {
	var ev evalResult
	if _, err := spawnChild(cfg, "eval", &ev); err != nil {
		return nil, err
	}
	if !ev.Match {
		return &ev, errors.New("in-process evaluation tables differ from the reference CSV")
	}
	return &ev, nil
}

// faultcovCampaign runs one timed faultcov process and returns its
// output, wall time and peak RSS in MiB.
func faultcovCampaign(cfg runConfig, args ...string) ([]byte, time.Duration, float64, error) {
	cmd := exec.Command(cfg.faultcov, append(args, "-workers", strconv.Itoa(cfg.workers))...)
	cmd.Env = childEnv(cfg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, 0, fmt.Errorf("faultcov %v: %w", args, err)
	}
	return out.Bytes(), wall, maxRSSMiB(cmd.ProcessState), nil
}

func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// runPaperEval is paper-eval's untraced run.  As on the in-process
// workloads, each timed campaign is followed by one set-up sample: a
// `faultcov -exp fig1a` process.
func runPaperEval(cfg runConfig, res *workloadResult) error {
	want, err := os.ReadFile(cfg.refPath)
	if err != nil {
		return err
	}
	var setups []float64
	setup := func() error {
		_, wall, _, err := faultcovCampaign(cfg, "-exp", "fig1a", "-format", "csv")
		setups = append(setups, wall.Seconds())
		return err
	}
	if err := setup(); err != nil {
		return err
	}

	// The evaluation's work in faults, counted untimed in-process.  The
	// contract wants faults_per_s on every workload; on this one it is a
	// constant over the campaign time.
	ev, err := runEval(cfg)
	res.attempt(err)
	if ev == nil || ev.Presented == 0 {
		return errors.New("the evaluation presented no faults")
	}
	args := []string{"-format", "csv", "-seed", strconv.FormatInt(cfg.seed, 10)}
	// check runs one campaign; ran reports that the process completed,
	// so its time is a sample whether or not its output matched.
	check := func() (wall time.Duration, rss float64, ran bool) {
		out, wall, rss, err := faultcovCampaign(cfg, args...)
		ran = err == nil
		if ran && !bytes.Equal(out, want) {
			err = errors.New("faultcov output differs from the reference CSV")
		}
		res.attempt(err)
		return wall, rss, ran
	}
	for i := 0; i < warmups; i++ {
		check()
	}
	var walls, rates, rss []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; more(cfg, n, deadline); n++ {
		wall, mib, ran := check()
		if ran {
			walls = append(walls, wall.Seconds())
			rates = append(rates, float64(ev.Presented)/wall.Seconds())
			rss = append(rss, mib)
		}
		if err := setup(); err != nil {
			return err
		}
	}
	res.setCampaigns(walls, rates)
	res.set("setup_s", median(setups), setups)
	res.set("peak_rss_mb", median(rss), rss)
	return nil
}
