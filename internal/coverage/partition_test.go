package coverage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
)

// The partition-equivalence property (this PR's acceptance criterion):
// splitting a streaming campaign into k index-range partitions and
// running each as its own session must reproduce the unpartitioned
// run exactly — summed stage tallies, summed per-class results, and
// (via checkpoint.Merge) a byte-identical final checkpoint including
// the cumulative detection bitmap.  Partitioning commutes with
// cross-test dropping because dropping is per-fault: stage s drops
// universe index u iff an earlier stage detected u, which depends on
// u alone, not on which partition simulated it.

// tallySum is the partition-summable slice of a Session: per-stage
// and per-runner detection tallies (execution metadata like
// OpsCleanRun repeats per partition and is excluded).
type tallySum struct {
	StageEntered  []int
	StageDetected []int
	Survivors     []int
	Total         []int
	Detected      []int
	ByClass       []map[fault.Class]ClassStat
	CumTotal      int
	CumDetected   int
}

func sumSessions(parts ...*Session) tallySum {
	first := parts[0]
	s := tallySum{
		StageEntered:  make([]int, len(first.Stages)),
		StageDetected: make([]int, len(first.Stages)),
		Survivors:     make([]int, len(first.Stages)),
		Total:         make([]int, len(first.Results)),
		Detected:      make([]int, len(first.Results)),
		ByClass:       make([]map[fault.Class]ClassStat, len(first.Results)),
	}
	for i := range s.ByClass {
		s.ByClass[i] = map[fault.Class]ClassStat{}
	}
	for _, p := range parts {
		for i, st := range p.Stages {
			s.StageEntered[i] += st.Entered
			s.StageDetected[i] += st.Detected
			s.Survivors[i] += st.Survivors
		}
		for i, r := range p.Results {
			s.Total[i] += r.Total
			s.Detected[i] += r.Detected
			for c, cs := range r.ByClass {
				agg := s.ByClass[i][c]
				agg.Total += cs.Total
				agg.Detected += cs.Detected
				s.ByClass[i][c] = agg
			}
		}
		s.CumTotal += p.Cumulative.Total
		s.CumDetected += p.Cumulative.Detected
	}
	return s
}

func assertTalliesEqual(t *testing.T, label string, want, got tallySum) {
	t.Helper()
	for i := range want.StageEntered {
		if want.StageEntered[i] != got.StageEntered[i] ||
			want.StageDetected[i] != got.StageDetected[i] ||
			want.Survivors[i] != got.Survivors[i] {
			t.Errorf("%s stage %d: %d/%d→%d, want %d/%d→%d", label, i,
				got.StageDetected[i], got.StageEntered[i], got.Survivors[i],
				want.StageDetected[i], want.StageEntered[i], want.Survivors[i])
		}
	}
	for i := range want.Total {
		if want.Total[i] != got.Total[i] || want.Detected[i] != got.Detected[i] {
			t.Errorf("%s runner %d: %d/%d, want %d/%d", label, i,
				got.Detected[i], got.Total[i], want.Detected[i], want.Total[i])
		}
		for c, w := range want.ByClass[i] {
			if g := got.ByClass[i][c]; g != w {
				t.Errorf("%s runner %d class %s: %+v, want %+v", label, i, c, g, w)
			}
		}
		for c := range got.ByClass[i] {
			if _, ok := want.ByClass[i][c]; !ok {
				t.Errorf("%s runner %d: unexpected class %s", label, i, c)
			}
		}
	}
	if want.CumTotal != got.CumTotal || want.CumDetected != got.CumDetected {
		t.Errorf("%s cumulative: %d/%d, want %d/%d", label,
			got.CumDetected, got.CumTotal, want.CumDetected, want.CumTotal)
	}
}

func TestPartitionedMatchesUnpartitioned(t *testing.T) {
	t.Parallel()
	engines := []Engine{EngineOracle, EngineBitParallel, EngineCompiled}
	ks := []int{2, 3, 7}
	chunks := []int{1, 4096}
	families := streamFamilies()
	if testing.Short() {
		engines = engines[1:]
		ks = []int{2, 3}
		chunks = []int{7}
		families = families[:4]
	}
	for _, fam := range families {
		for _, engine := range engines {
			for _, chunk := range chunks {
				mkPlan := func(i, k int) *Plan {
					return &Plan{
						Runners: fam.runners,
						Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
						Chunk:   chunk, Memory: fam.mk,
						Workers: 4, Engine: engine, Drop: true,
						PartitionIndex: i, PartitionCount: k,
					}
				}
				want := sumSessions(mkPlan(0, 0).Run())
				for _, k := range ks {
					label := fmt.Sprintf("%s [%s chunk=%d k=%d]", fam.name, engine, chunk, k)
					parts := make([]*Session, k)
					for i := range parts {
						parts[i] = mkPlan(i+1, k).Run()
						if got := parts[i].Stages[0].Stats.PartitionIndex; got != i+1 {
							t.Errorf("%s: partition %d reports Stats.PartitionIndex %d", label, i+1, got)
						}
					}
					assertTalliesEqual(t, label, want, sumSessions(parts...))
				}
			}
		}
	}
}

// The multi-process contract end to end at the library level: k
// partitioned sessions each writing their own checkpoint, merged with
// checkpoint.Merge, must produce a state byte-identical to the final
// checkpoint of the unpartitioned run — same tallies, same stage
// records, same cumulative detection bitmap words.
func TestPartitionCheckpointsMergeByteIdentical(t *testing.T) {
	t.Parallel()
	families := streamFamilies()
	ks := []int{2, 3, 7}
	if testing.Short() {
		families = families[:3]
		ks = []int{3}
	}
	dir := t.TempDir()
	for fi, fam := range families {
		for _, k := range ks {
			label := fmt.Sprintf("%s k=%d", fam.name, k)
			mkPlan := func(i, n int, path string) *Plan {
				return &Plan{
					Runners: fam.runners,
					Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
					Chunk:   64, Memory: fam.mk,
					Workers: 4, Engine: EngineCompiled, Drop: true,
					PartitionIndex: i, PartitionCount: n,
					Checkpoint: &CheckpointConfig{Path: path, Label: "partition-prop"},
				}
			}
			refPath := filepath.Join(dir, fmt.Sprintf("ref-%d-%d.fckp", fi, k))
			mkPlan(0, 0, refPath).Run()
			ref, err := checkpoint.Load(refPath)
			if err != nil {
				t.Fatalf("%s: load reference: %v", label, err)
			}
			states := make([]*checkpoint.State, k)
			for i := range states {
				p := filepath.Join(dir, fmt.Sprintf("part-%d-%d-%d.fckp", fi, k, i))
				mkPlan(i+1, k, p).Run()
				if states[i], err = checkpoint.Load(p); err != nil {
					t.Fatalf("%s: load partition %d: %v", label, i+1, err)
				}
				lo, hi, part := states[i].PartitionRange()
				wantLo, wantHi := fault.PartitionRange(int(ref.UniverseN), i, k)
				if !part || lo != int64(wantLo) || hi != int64(wantHi) {
					t.Fatalf("%s: partition %d recorded [%d, %d) part=%v, want [%d, %d)",
						label, i+1, lo, hi, part, wantLo, wantHi)
				}
			}
			merged, err := checkpoint.Merge(states)
			if err != nil {
				t.Fatalf("%s: merge: %v", label, err)
			}
			if !bytes.Equal(merged.Encode(), ref.Encode()) {
				t.Errorf("%s: merged checkpoint differs from the unpartitioned run's", label)
			}
		}
	}
}

// Resuming a partition's checkpoint under a different partition spec
// (or none) must be refused before any simulation runs.
func TestPartitionResumeMismatchRefused(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	dir := t.TempDir()
	mkPlan := func(i, k int, cp *CheckpointConfig) *Plan {
		return &Plan{
			Runners: fam.runners,
			Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
			Chunk:   64, Memory: fam.mk,
			Workers: 2, Engine: EngineCompiled, Drop: true,
			PartitionIndex: i, PartitionCount: k,
			Checkpoint: cp,
		}
	}
	path := filepath.Join(dir, "p1of2.fckp")
	mkPlan(1, 2, &CheckpointConfig{Path: path}).Run()
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mkPlan(1, 2, nil).ValidateResume(st, 0); err != nil {
		t.Errorf("matching partition spec refused: %v", err)
	}
	for _, tc := range []struct{ i, k int }{{0, 0}, {2, 2}, {1, 3}} {
		err := mkPlan(tc.i, tc.k, nil).ValidateResume(st, 0)
		if err == nil || !strings.Contains(err.Error(), "partition") {
			t.Errorf("partition %d/%d resuming a 1/2 checkpoint: err = %v, want a partition mismatch", tc.i, tc.k, err)
		}
	}
}

func expectPanic(t *testing.T, label, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic, want one mentioning %q", label, want)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q, want it to mention %q", label, msg, want)
		}
	}()
	f()
}

// Invalid partition combinations must refuse loudly up front rather
// than silently produce wrong results.
func TestPartitionAndSinkMisuse(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	base := func() *Plan {
		return &Plan{
			Runners: fam.runners,
			Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
			Chunk:   64, Memory: fam.mk, Workers: 2, Engine: EngineCompiled,
		}
	}
	p := base()
	p.PartitionIndex, p.PartitionCount = 1, 2
	p.KeepVectors = true
	expectPanic(t, "partition+KeepVectors", "KeepVectors", func() { p.Run() })

	p = base()
	p.PartitionIndex, p.PartitionCount = 5, 3
	expectPanic(t, "index out of range", "PartitionIndex", func() { p.Run() })
}

// Universe plans never checkpoint or partition: KeepVectors, which
// both would refuse, proves that the fields are ignored.
func TestUniversePlansIgnoreDurabilityAndPartition(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	u := fault.Universe{Name: fam.name, Faults: fault.Collect(fam.src)}
	dir := t.TempDir()
	s := (&Plan{
		Runners: fam.runners, Universe: u, Memory: fam.mk,
		Workers: 2, Engine: EngineCompiled, KeepVectors: true,
		PartitionIndex: 1, PartitionCount: 2,
		Checkpoint: &CheckpointConfig{Path: filepath.Join(dir, "plan.fckp")},
	}).Run()
	if s.Cumulative.Total != len(u.Faults) || s.Stages[0].Stats.PartitionIndex != 0 {
		t.Errorf("covered %d of %d faults in partition %d",
			s.Cumulative.Total, len(u.Faults), s.Stages[0].Stats.PartitionIndex)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Errorf("Universe plans wrote checkpoints: %v (%v)", files, err)
	}
}
