package fault

import (
	"testing"
)

// TestCollapseDeduplicatesIdenticalFaults: a duplicate of a fault some
// rule can merge (a bridge, a benign instance) shares its key and
// merges; a duplicate of any other fault is not keyed and is simulated
// again, which costs a replay but never changes a verdict.
func TestCollapseDeduplicatesIdenticalFaults(t *testing.T) {
	faults := []Fault{
		BF{CellA: 3, BitA: 1, CellB: 5, BitB: 0, And: true},
		TF{Cell: 2, Up: true},
		AF{Kind: AFAlias, Addr: 4, Target: 4},
		BF{CellA: 3, BitA: 1, CellB: 5, BitB: 0, And: true}, // duplicate of 0
		TF{Cell: 2, Up: true},                               // duplicate of 1, kept apart
		AF{Kind: AFAlias, Addr: 4, Target: 4},               // duplicate of 2
	}
	col := Collapse(faults, nil)
	if len(col.Reps) != 4 {
		t.Fatalf("got %d representatives, want 4", len(col.Reps))
	}
	want := []int{0, 1, 2, 0, 3, 2}
	for i, r := range col.Map {
		if r != want[i] {
			t.Errorf("Map[%d] = %d, want %d", i, r, want[i])
		}
	}
}

func TestCollapseBridgingSymmetry(t *testing.T) {
	a := BF{CellA: 2, BitA: 1, CellB: 7, BitB: 0, And: true}
	b := BF{CellA: 7, BitA: 0, CellB: 2, BitB: 1, And: true} // mirrored
	c := BF{CellA: 7, BitA: 0, CellB: 2, BitB: 1, And: false}
	col := Collapse([]Fault{a, b, c}, nil)
	if len(col.Reps) != 2 {
		t.Fatalf("got %d representatives, want 2 (mirrored AND-bridges collapse)", len(col.Reps))
	}
	if col.Map[0] != col.Map[1] {
		t.Errorf("mirrored bridges map to distinct reps %d, %d", col.Map[0], col.Map[1])
	}
	if col.Map[2] == col.Map[0] {
		t.Error("AND and OR bridges must stay distinct")
	}
}

func TestCollapseBenignFaults(t *testing.T) {
	edge := GridNeighbourhood(0, 36, 6) // corner: N and W missing
	if edge.Complete() {
		t.Fatal("test premise broken: corner neighbourhood is complete")
	}
	interior := GridNeighbourhood(7, 36, 6)
	faults := []Fault{
		SNPSF{Nb: edge, Pattern: 5, Value: 1},               // never matches
		ANPSF{Nb: edge, Trigger: 0, Up: true, Value: 1},     // trigger missing
		AF{Kind: AFAlias, Addr: 4, Target: 4},               // self-alias = identity
		BF{CellA: 3, BitA: 2, CellB: 3, BitB: 2},            // self-bridge = identity
		SNPSF{Nb: interior, Pattern: 5, Value: 1},           // real
		ANPSF{Nb: interior, Trigger: 0, Up: true, Value: 1}, // real
	}
	col := Collapse(faults, nil)
	if len(col.Reps) != 3 {
		t.Fatalf("got %d representatives, want 3 (one benign class + two real faults)", len(col.Reps))
	}
	benign := col.Map[0]
	for i := 1; i <= 3; i++ {
		if col.Map[i] != benign {
			t.Errorf("fault %d not in the benign class", i)
		}
	}
	if col.Map[4] == benign || col.Map[5] == benign {
		t.Error("interior NPSF faults wrongly classified benign")
	}
}

func TestCollapseSAFPairingUnderSummary(t *testing.T) {
	// Width-1 summary: cell 0 sees both polarities checked, cell 1 only
	// polarity 1, cell 2 none.
	sum := &TraceSummary{Width: 1, Expect: []uint8{0b11, 0b10, 0b00}}
	faults := []Fault{
		SAF{Cell: 0, Value: 0}, SAF{Cell: 0, Value: 1}, // both detected → pair
		SAF{Cell: 1, Value: 0}, SAF{Cell: 1, Value: 1}, // outcomes differ → keep apart
		SAF{Cell: 2, Value: 0}, SAF{Cell: 2, Value: 1}, // both undetected → pair
	}
	col := Collapse(faults, sum)
	if len(col.Reps) != 4 {
		t.Fatalf("got %d representatives, want 4", len(col.Reps))
	}
	if col.Map[0] != col.Map[1] {
		t.Error("SA0/SA1 on a both-polarity bit must collapse")
	}
	if col.Map[2] == col.Map[3] {
		t.Error("SA0/SA1 on a single-polarity bit must stay apart")
	}
	if col.Map[4] != col.Map[5] {
		t.Error("SA0/SA1 on an unchecked bit must collapse")
	}

	// The same universe under an affine trace must not pair at all.
	sum.Affine = true
	if col := Collapse(faults, sum); len(col.Reps) != 6 {
		t.Fatalf("affine trace: got %d representatives, want 6 (SAF rule disabled)", len(col.Reps))
	}
}

func TestCollapseSAFPairingFoldedGate(t *testing.T) {
	// Cell 0: unchecked but feeding a signature observer — SA0 and SA1
	// fold different error patterns and may alias differently, so they
	// must stay split.  Cell 1: both polarities checked AND folded —
	// both are detected by the checked reads whatever the register
	// does, so they still pair.
	sum := &TraceSummary{Width: 1, Expect: []uint8{ExpectFolded, 0b11 | ExpectFolded}}
	faults := []Fault{
		SAF{Cell: 0, Value: 0}, SAF{Cell: 0, Value: 1},
		SAF{Cell: 1, Value: 0}, SAF{Cell: 1, Value: 1},
	}
	col := Collapse(faults, sum)
	if len(col.Reps) != 3 {
		t.Fatalf("got %d representatives, want 3", len(col.Reps))
	}
	if col.Map[0] == col.Map[1] {
		t.Error("SA0/SA1 on a folded unchecked bit must stay apart")
	}
	if col.Map[2] != col.Map[3] {
		t.Error("SA0/SA1 on a both-polarity checked bit must pair even when folded")
	}
}

func TestCollapsedExpand(t *testing.T) {
	col := Collapsed{
		Reps: []Fault{SAF{}, TF{}},
		Map:  []int{0, 1, 0, 1, 1},
	}
	got := make([]bool, len(col.Map))
	col.ExpandInto(got, []bool{true, false})
	want := []bool{true, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpandInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if col.Saved() != 3 {
		t.Fatalf("Saved = %d, want 3", col.Saved())
	}
}

// TestCollapserSteadyStateAllocatesNothing: a worker's Collapser, warmed
// on one chunk, collapses the next chunk of the same shape without
// allocating — a coupling chunk whose bridges merge with their mirrors,
// and a single-cell chunk whose SA0/SA1 pairs merge under a summary.
func TestCollapserSteadyStateAllocatesNothing(t *testing.T) {
	cf := Collect(FullCouplingSource(8)) // aggressors 0–3, then aggressors 4–7
	single := SingleCellUniverse(64, 2)
	sum := &TraceSummary{Width: 2, Expect: make([]uint8, 64*2)}
	for i := range sum.Expect {
		sum.Expect[i] = []uint8{3, 0, 1, ExpectFolded}[i%4]
	}
	for _, tc := range []struct {
		name       string
		warm, next []Fault
		sum        *TraceSummary
	}{
		{"coupling", cf[:len(cf)/2], cf[len(cf)/2:], nil},
		{"saf-pairs", single[:len(single)/2], single[len(single)/2:], sum},
	} {
		var c Collapser
		if c.Collapse(tc.warm, tc.sum) == nil {
			t.Fatalf("%s: test premise broken: the warm-up chunk merges nothing", tc.name)
		}
		var col *Collapsed
		if allocs := testing.AllocsPerRun(20, func() { col = c.Collapse(tc.next, tc.sum) }); allocs != 0 {
			t.Errorf("%s: steady-state collapse allocates %v times per chunk", tc.name, allocs)
		}
		if col == nil || len(col.Reps) == len(tc.next) {
			t.Fatalf("%s: test premise broken: the measured chunk merges nothing", tc.name)
		}
	}
}
