package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
)

// Output checks.  Every campaign's output is compared with a reference
// computed by an engine other than the compiled one it measures.  Seeds
// with a committed golden (bench/golden) read it; goldens are computed
// by the oracle engine, the reference semantics the fast engines are
// property-tested against.  Any other seed computes its reference once,
// untimed, with the bit-parallel engine and caches it under the output
// directory, labelled as such: on the CF campaign the oracle takes about
// a minute per seed, the bit-parallel engine about two seconds, so runs
// on seeds without a golden stay within the benchmark's time budget.

// tally is a campaign's output as the benchmark checks it: the stages
// in execution order and the cumulative per-class tallies.
type tally struct {
	Stages   []stageTally `json:"stages"`
	Total    int          `json:"total"`
	Detected int          `json:"detected"`
	Classes  []classTally `json:"classes"`
}

type stageTally struct {
	Runner    string `json:"runner"`
	Entered   int    `json:"entered"`
	Detected  int    `json:"detected"`
	Survivors int    `json:"survivors"`
}

type classTally struct {
	Class    string `json:"class"`
	Total    int    `json:"total"`
	Detected int    `json:"detected"`
}

// reference is a golden file: the tally of one in-process workload at
// one seed and the engine that computed it.
type reference struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Engine   string `json:"engine"`
	tally
}

func sessionTally(s *coverage.Session) tally {
	t := tally{Total: s.Cumulative.Total, Detected: s.Cumulative.Detected}
	for _, st := range s.Stages {
		t.Stages = append(t.Stages, stageTally{st.Runner, st.Entered, st.Detected, st.Survivors})
	}
	for _, c := range s.Cumulative.Classes() {
		cs := s.Cumulative.ByClass[c]
		t.Classes = append(t.Classes, classTally{c.String(), cs.Total, cs.Detected})
	}
	return t
}

// checkpointTally reads the same tally back from a completed
// checkpoint, so a durable campaign's file is checked like its session.
func checkpointTally(st *checkpoint.State) (tally, error) {
	if !st.Complete {
		return tally{}, errors.New("final checkpoint is not marked complete")
	}
	t := tally{Total: int(st.UniverseN), Detected: fault.BitSetFromWords(st.Bits).Count()}
	for _, r := range st.Done {
		t.Stages = append(t.Stages, stageTally{r.Runner, int(r.Entered), int(r.Detected), int(r.Survivors)})
	}
	for _, c := range st.Universe {
		t.Classes = append(t.Classes, classTally{fault.Class(c.Class).String(), int(c.Total), int(c.Detected)})
	}
	return t, nil
}

func (t tally) equal(u tally) bool {
	a, _ := json.Marshal(t)
	b, _ := json.Marshal(u)
	return bytes.Equal(a, b)
}

// refCampaign names the campaign a workload's reference describes: the
// two CF workloads run the same campaign and share one.
func refCampaign(workload string) string {
	if workload == cfDurable {
		return cfStream
	}
	return workload
}

func refExt(workload string) string {
	if workload == paperEval {
		return ".csv"
	}
	return ".json"
}

// goldenPath is the reference file of (workload, seed) in dir; the CF
// workloads share theirs.
func goldenPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d%s", refCampaign(workload), seed, refExt(workload)))
}

// resolveReference returns the reference file for (workload, seed) and
// a label saying where it came from, computing and caching the
// bit-parallel reference when no golden exists.
func resolveReference(cfg runConfig) (path, label string, err error) {
	if p := goldenPath(cfg.goldenDir, cfg.workload, cfg.seed); fileExists(p) {
		return p, "golden " + p + " (oracle)", nil
	}
	path = goldenPath(filepath.Join(cfg.outDir, "ref"), cfg.workload, cfg.seed)
	label = fmt.Sprintf("bit-parallel reference computed untimed (no golden for seed %d), cached in %s", cfg.seed, path)
	if fileExists(path) {
		return path, label, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", "", err
	}
	fmt.Fprintf(os.Stderr, "# %s seed %d: no golden; computing the bit-parallel reference (untimed)\n", cfg.workload, cfg.seed)
	if err := writeReference(cfg, coverage.EngineBitParallel, path); err != nil {
		return "", "", err
	}
	return path, label, nil
}

// writeReference computes the reference of cfg's workload with engine
// and writes it to path.
func writeReference(cfg runConfig, engine coverage.Engine, path string) error {
	var b []byte
	if cfg.workload == paperEval {
		var err error
		if b, err = runFaultcov(cfg, "-engine", engine.String(), "-format", "csv", "-seed", strconv.FormatInt(cfg.seed, 10)); err != nil {
			return err
		}
	} else {
		w, err := buildCampaign(cfg)
		if err != nil {
			return err
		}
		defer w.cleanup()
		p := w.plan
		p.Engine, p.Cache, p.Checkpoint = engine, nil, nil
		s := p.Run()
		if s.Interrupted {
			return errors.New("reference run was interrupted")
		}
		ref := reference{Workload: refCampaign(cfg.workload), Seed: cfg.seed, Engine: engine.String(), tally: sessionTally(s)}
		if b, err = json.MarshalIndent(ref, "", " "); err != nil {
			return err
		}
		b = append(b, '\n')
	}
	return writeFile(path, b)
}

// writeGolden writes the golden file of cfg's workload at cfg's seed,
// computed by the oracle.
func writeGolden(cfg runConfig) error {
	if err := os.MkdirAll(cfg.goldenDir, 0o755); err != nil {
		return err
	}
	return writeReference(cfg, coverage.EngineOracle, goldenPath(cfg.goldenDir, cfg.workload, cfg.seed))
}

// loadTally reads an in-process workload's reference tally.
func loadTally(path string) (tally, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return tally{}, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return tally{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(ref.Stages) == 0 {
		return tally{}, fmt.Errorf("%s: reference has no stages", path)
	}
	return ref.tally, nil
}

// runFaultcov runs the built faultcov binary with args and returns its
// standard output.
func runFaultcov(cfg runConfig, args ...string) ([]byte, error) {
	if cfg.faultcov == "" {
		return nil, errors.New("paper-eval needs the faultcov binary (-faultcov)")
	}
	cmd := exec.Command(cfg.faultcov, append(args, "-workers", strconv.Itoa(cfg.workers))...)
	cmd.Env = childEnv(cfg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("faultcov %v: %w", args, err)
	}
	return out, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// writeFile writes b to path through a temporary file and a rename, so
// a killed run never leaves a torn reference behind.
func writeFile(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
