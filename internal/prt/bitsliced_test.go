package prt

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/ram"
)

func TestBitSlicedCleanMemory(t *testing.T) {
	for _, mode := range []LaneMode{ParallelLanes, RandomLanes} {
		for _, n := range []int{8, 64, 100} {
			mem := ram.NewWOM(n, 4)
			cfg := NewBitSliced(4, mode)
			cfg.Verify = true
			res, err := RunBitSliced(cfg, mem)
			if err != nil {
				t.Fatal(err)
			}
			if res.Detected {
				t.Errorf("%v n=%d: false positive", mode, n)
			}
			if len(res.LaneDetected) != 4 {
				t.Errorf("lane result length %d", len(res.LaneDetected))
			}
		}
	}
}

func TestBitSlicedParallelLanesAreLockStep(t *testing.T) {
	// In parallel mode every lane runs the same automaton with the same
	// seed, so each stored word has all bits equal.
	mem := ram.NewWOM(32, 4)
	cfg := NewBitSliced(4, ParallelLanes)
	if _, err := RunBitSliced(cfg, mem); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 32; a++ {
		v := mem.Read(a)
		if v != 0 && v != 0xF {
			t.Fatalf("cell %d = %x: lanes not in lock-step", a, v)
		}
	}
}

func TestBitSlicedRandomLanesDecorrelated(t *testing.T) {
	// Random mode must produce at least one word with mixed bits.
	mem := ram.NewWOM(64, 4)
	cfg := NewBitSliced(4, RandomLanes)
	if _, err := RunBitSliced(cfg, mem); err != nil {
		t.Fatal(err)
	}
	mixed := false
	for a := 0; a < 64; a++ {
		v := mem.Read(a)
		if v != 0 && v != 0xF {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Error("random lanes produced a fully correlated TDB")
	}
}

func TestBitSlicedLaneLocalisation(t *testing.T) {
	// A stuck-at-0 bit in lane 2 must flag lane 2 (and possibly only
	// it).  Cell 9 carries a 1 in the parallel TDB (1,1,0 repeating),
	// so stuck-at-0 is excited.
	f := fault.SAF{Cell: 9, Bit: 2, Value: 0}
	mem := f.Inject(ram.NewWOM(32, 4))
	cfg := NewBitSliced(4, ParallelLanes)
	cfg.Verify = true
	res, err := RunBitSliced(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || !res.LaneDetected[2] {
		t.Errorf("lane 2 fault not localised: %+v", res)
	}
}

// TestIntraWordParallelSaturatesRandomClimbs reproduces the paper's §2
// comparison (experiment E9): parallel trajectories are structurally
// blind to the idempotent intra-word faults that force the shared
// value, so their coverage saturates; random (decorrelated) lanes keep
// climbing with the iteration count.
func TestIntraWordParallelSaturatesRandomClimbs(t *testing.T) {
	n, m := 32, 4
	uni := fault.IntraWordUniverse(n, m)
	cov := func(mode LaneMode, iters int) float64 {
		cfgs := BitSlicedScheme(m, mode, iters)
		det := 0
		for _, f := range uni {
			mem := f.Inject(ram.NewWOM(n, m))
			r, err := RunBitSlicedScheme(cfgs, mem)
			if err != nil {
				t.Fatal(err)
			}
			if r.Detected {
				det++
			}
		}
		return float64(det) / float64(len(uni))
	}
	p3, p8 := cov(ParallelLanes, 3), cov(ParallelLanes, 8)
	r3, r8 := cov(RandomLanes, 3), cov(RandomLanes, 8)
	if p8 > p3+0.01 {
		t.Errorf("parallel coverage should saturate: %.3f -> %.3f", p3, p8)
	}
	if r8 <= r3 {
		t.Errorf("random coverage should climb: %.3f -> %.3f", r3, r8)
	}
	if r8 <= p8 {
		t.Errorf("random (%.3f) should beat parallel (%.3f) at 8 iterations", r8, p8)
	}
}

func TestBitSlicedValidation(t *testing.T) {
	cfg := NewBitSliced(4, ParallelLanes)
	if _, err := RunBitSliced(cfg, ram.NewWOM(16, 8)); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := RunBitSliced(cfg, ram.NewWOM(2, 4)); err == nil {
		t.Error("tiny memory accepted")
	}
}

func TestBitSlicedSchemeMerging(t *testing.T) {
	n, m := 32, 4
	f := fault.SAF{Cell: 3, Bit: 1, Value: 0}
	mem := f.Inject(ram.NewWOM(n, m))
	res, err := RunBitSlicedScheme(BitSlicedScheme(m, ParallelLanes, 3), mem)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || !res.LaneDetected[1] {
		t.Errorf("scheme merge lost detection: %+v", res)
	}
	if res.Ops == 0 {
		t.Error("ops not accumulated")
	}
}

func TestLaneModeString(t *testing.T) {
	if ParallelLanes.String() != "parallel" || RandomLanes.String() != "random" {
		t.Error("LaneMode strings wrong")
	}
}

func TestBitSlicedScheme3HasThreeIterations(t *testing.T) {
	cfgs := BitSlicedScheme(8, RandomLanes, 3)
	if len(cfgs) != 3 {
		t.Fatalf("scheme length %d", len(cfgs))
	}
	if cfgs[1].Trajectory != Descending {
		t.Error("second iteration should descend")
	}
}
