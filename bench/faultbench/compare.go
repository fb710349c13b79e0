package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// loadRuns reads one side of a comparison: a result file, or a directory
// whose untraced result files (result-*.json) are each one run.
func loadRuns(path string) ([]*resultFile, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if fi.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
	}
	var runs []*resultFile
	for _, p := range paths {
		rf, err := loadResult(p)
		if err != nil {
			return nil, err
		}
		if !rf.Trace {
			runs = append(runs, rf)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result", path)
	}
	return runs, nil
}

// runValues gathers one value per run for every (workload, metric), and
// the workloads in the order the runs first name them.
func runValues(runs []*resultFile) (map[string]map[string][]float64, []string) {
	vals := map[string]map[string][]float64{}
	var order []string
	for _, rf := range runs {
		for _, r := range rf.Workloads {
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
				order = append(order, r.Workload)
			}
			for _, m := range r.Metrics {
				vals[r.Workload][m.Name] = append(vals[r.Workload][m.Name], m.Value)
			}
		}
	}
	return vals, order
}

// compareResults compares two sets of runs, A the baseline and B the
// change.  For every (workload, end-to-end metric) of A it prints each
// side's median over runs, their quartiles and run count, the change and
// whether B stays within the BENCHMARK.json bound of A.  A pair whose
// run-to-run spread (interquartile range over median) is wider than the
// bound is unresolved, unless every run of B beats every run of A.  A
// pair B did not measure is missing and counts as a regression.  It
// refuses runs from different environments and runs with a failed output
// check, since a run that produced wrong tallies has no speed to
// compare.  It reports whether any pair regressed.
func compareResults(spec *benchSpec, a, b []*resultFile, w io.Writer) (regressed bool, err error) {
	if len(a) == 0 || len(b) == 0 {
		return false, errors.New("each side needs at least one run")
	}
	env := a[0].Env
	for _, side := range []struct {
		name string
		runs []*resultFile
	}{{"A", a}, {"B", b}} {
		for _, rf := range side.runs {
			e := rf.Env
			if e.CPUModel != env.CPUModel || e.NumCPU != env.NumCPU || e.GOMAXPROCS != env.GOMAXPROCS || e.GoVersion != env.GoVersion {
				return false, fmt.Errorf("environments differ: %+v vs %+v", env, e)
			}
			if rf.Trace {
				return false, errors.New("traced results carry per-layer metrics; compare untraced runs")
			}
			for _, r := range rf.Workloads {
				if !r.Correct || r.Failed > 0 {
					return false, fmt.Errorf("%s: %s seed %d failed %d of %d output checks", side.name, r.Workload, rf.Seed, r.Failed, r.Attempted)
				}
			}
		}
	}
	va, order := runValues(a)
	vb, _ := runValues(b)
	fmt.Fprintf(w, "%-12s %-12s %12s %25s %12s %25s %5s %8s %6s  %s\n",
		"workload", "metric", "A", "A p25..p75", "B", "B p25..p75", "runs", "change", "bound", "verdict")
	for _, wl := range order {
		for _, m := range spec.EndToEnd {
			sa, sb := va[wl][m.Name], vb[wl][m.Name]
			if len(sa) == 0 {
				continue // not measured at the baseline: nothing to hold B to
			}
			bound := *m.Bound
			ma := median(sa)
			qa1, _, qa3 := quartiles(sa)
			aCols := fmt.Sprintf("%-12s %-12s %12.6g %25s", wl, m.Name, ma, fmt.Sprintf("%.6g..%.6g", qa1, qa3))
			if len(sb) == 0 {
				fmt.Fprintf(w, "%s %12s %25s %5s %8s %5.0f%%  %s\n", aCols, "-", "-", fmt.Sprintf("%d/0", len(sa)), "-", 100*bound, "MISSING")
				regressed = true
				continue
			}
			mb := median(sb)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within"
			switch {
			case max(spread(sa), spread(sb)) > bound && allBetter(sb, sa, m.Better):
				verdict = "better"
			case max(spread(sa), spread(sb)) > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "REGRESSED"
				regressed = true
			}
			qb1, _, qb3 := quartiles(sb)
			fmt.Fprintf(w, "%s %12.6g %25s %5s %+7.1f%% %5.0f%%  %s\n", aCols, mb, fmt.Sprintf("%.6g..%.6g", qb1, qb3),
				fmt.Sprintf("%d/%d", len(sa), len(sb)), 100*change, 100*bound, verdict)
		}
	}
	return regressed, nil
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better string) bool {
	for _, x := range b {
		for _, y := range a {
			if better == "higher" && x <= y || better == "lower" && x >= y {
				return false
			}
		}
	}
	return true
}
