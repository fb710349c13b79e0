package coverage

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/lfsr"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
)

func bomFactory(n int) MemoryFactory {
	return func() ram.Memory { return ram.NewBOM(n) }
}

func womFactory(n, m int) MemoryFactory {
	return func() ram.Memory { return ram.NewWOM(n, m) }
}

func TestCampaignMarchCMinusSingleCell(t *testing.T) {
	t.Parallel()
	n := 32
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	res := Campaign(MarchRunner(march.MarchCMinus(), nil), u, bomFactory(n), 4)
	if res.FalsePositive {
		t.Fatal("March C- false positive")
	}
	if res.Coverage() != 1 {
		t.Errorf("March C- single-cell coverage = %.3f, want 1", res.Coverage())
	}
	if res.OpsCleanRun != uint64(10*n) {
		t.Errorf("clean ops = %d, want 10n", res.OpsCleanRun)
	}
	if res.ByClass[fault.ClassSAF].Total != 2*n || res.ByClass[fault.ClassTF].Total != 2*n {
		t.Errorf("class totals wrong: %+v", res.ByClass)
	}
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	n := 16
	u := fault.StandardUniverse(n, 1, 5, 3)
	r1 := Campaign(MarchRunner(march.MarchY(), nil), u, bomFactory(n), 1)
	r8 := Campaign(MarchRunner(march.MarchY(), nil), u, bomFactory(n), 8)
	if r1.Detected != r8.Detected || r1.Total != r8.Total {
		t.Errorf("worker count changed results: %d/%d vs %d/%d",
			r1.Detected, r1.Total, r8.Detected, r8.Total)
	}
	for c, s1 := range r1.ByClass {
		if s8 := r8.ByClass[c]; s1 != s8 {
			t.Errorf("class %v differs: %+v vs %+v", c, s1, s8)
		}
	}
}

func TestCampaignPRTRunner(t *testing.T) {
	t.Parallel()
	n := 32
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 4)}
	res := Campaign(PRTRunner(prt.PaperWOMScheme3()), u, womFactory(n, 4), 0)
	if res.FalsePositive {
		t.Fatal("PRT false positive")
	}
	if res.Coverage() != 1 {
		t.Errorf("PRT-3 single-cell coverage = %.3f", res.Coverage())
	}
	if res.Runner != "PRT-3" {
		t.Errorf("runner name %q", res.Runner)
	}
}

func TestCompareOrdersResults(t *testing.T) {
	t.Parallel()
	n := 16
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	runners := []Runner{
		MarchRunner(march.MATS(), nil),
		MarchRunner(march.MarchCMinus(), nil),
	}
	rs := (&Plan{Runners: runners, Universe: u, Memory: bomFactory(n), Workers: 2}).Run().Results
	if len(rs) != 2 || rs[0].Runner != "MATS" || rs[1].Runner != "March C-" {
		t.Fatalf("compare results misordered: %+v", rs)
	}
	// MATS (no TF coverage) must trail March C-.
	if rs[0].Detected >= rs[1].Detected {
		t.Errorf("MATS %d should detect fewer than March C- %d", rs[0].Detected, rs[1].Detected)
	}
}

func TestBitSlicedRunner(t *testing.T) {
	t.Parallel()
	n, m := 16, 4
	u := fault.Universe{Name: "iw", Faults: fault.IntraWordUniverse(n, m)}
	r := BitSlicedRunner("bs-random", prt.BitSlicedScheme(m, prt.RandomLanes, 4))
	res := Campaign(r, u, womFactory(n, m), 0)
	if res.FalsePositive {
		t.Fatal("bit-sliced false positive")
	}
	if res.Coverage() <= 0.3 {
		t.Errorf("bit-sliced coverage %.2f suspiciously low", res.Coverage())
	}
}

func TestDualPortRunner(t *testing.T) {
	t.Parallel()
	n := 16
	g := lfsr.PaperGenPoly()
	r := DualPortRunner("2P-PRT", func(mp *ram.MultiPort) (bool, uint64, error) {
		return prt.DualPortScheme3(g, mp)
	})
	u := fault.Universe{Name: "saf", Faults: fault.SingleCellUniverse(n, 4)}
	res := Campaign(r, u, womFactory(n, 4), 2)
	if res.FalsePositive {
		t.Fatal("dual-port false positive")
	}
	if res.ByClass[fault.ClassSAF].Ratio() != 1 {
		t.Errorf("dual-port SAF coverage %.2f", res.ByClass[fault.ClassSAF].Ratio())
	}
}

func TestClassStatRatio(t *testing.T) {
	t.Parallel()
	if (ClassStat{}).Ratio() != 0 {
		t.Error("empty class ratio should be 0")
	}
	if (ClassStat{Total: 4, Detected: 3}).Ratio() != 0.75 {
		t.Error("ratio wrong")
	}
}

func TestResultClassesSorted(t *testing.T) {
	t.Parallel()
	res := Result{ByClass: map[fault.Class]ClassStat{
		fault.ClassBF:  {},
		fault.ClassSAF: {},
		fault.ClassTF:  {},
	}}
	cs := res.Classes()
	if len(cs) != 3 || cs[0] != fault.ClassSAF || cs[2] != fault.ClassBF {
		t.Errorf("classes unsorted: %v", cs)
	}
}

func TestFalsePositiveFlag(t *testing.T) {
	t.Parallel()
	// A deliberately broken runner that always detects.
	broken := brokenRunner{}
	u := fault.Universe{Name: "one", Faults: fault.StuckOpenUniverse(4)}
	res := Campaign(broken, u, bomFactory(8), 1)
	if !res.FalsePositive {
		t.Error("false positive not flagged")
	}
}

type brokenRunner struct{}

func (brokenRunner) Name() string                  { return "broken" }
func (brokenRunner) Run(ram.Memory) (bool, uint64) { return true, 1 }

func TestSumAggregatesClasses(t *testing.T) {
	t.Parallel()
	byClass := map[fault.Class]ClassStat{
		fault.ClassSAF:  {Total: 10, Detected: 9},
		fault.ClassTF:   {Total: 5, Detected: 5},
		fault.ClassCFin: {Total: 7, Detected: 3},
	}
	d, tot := Sum(byClass, fault.ClassSAF, fault.ClassTF)
	if d != 14 || tot != 15 {
		t.Errorf("Sum = %d/%d, want 14/15", d, tot)
	}
	// Absent classes contribute zero.
	d, tot = Sum(byClass, fault.ClassBF)
	if d != 0 || tot != 0 {
		t.Errorf("Sum of absent class = %d/%d", d, tot)
	}
}
