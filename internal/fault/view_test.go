package fault

import "testing"

// subsetView is a test-only View of the kept positions of a slice.
type subsetView struct {
	faults []Fault
	idx    []int
}

func where(faults []Fault, keep func(i int) bool) subsetView {
	v := subsetView{faults: faults}
	for i := range faults {
		if keep(i) {
			v.idx = append(v.idx, i)
		}
	}
	return v
}

func (v subsetView) Len() int        { return len(v.idx) }
func (v subsetView) At(i int) Fault  { return v.faults[v.idx[i]] }
func (v subsetView) Index(i int) int { return v.idx[i] }

func TestViewSpanIsIdentity(t *testing.T) {
	faults := SingleCellUniverse(4, 1)
	v := Span(faults)
	if v.Len() != len(faults) {
		t.Fatalf("span: len=%d want %d", v.Len(), len(faults))
	}
	for i := range faults {
		if v.At(i) != faults[i] || v.Index(i) != i {
			t.Fatalf("position %d: At=%v Index=%d", i, v.At(i), v.Index(i))
		}
	}
}

// TestCollapseViewMatchesCollapseOnSubset: collapsing a view must
// equal collapsing the materialised subset — same representatives,
// same map, exact expansion.
func TestCollapseViewMatchesCollapseOnSubset(t *testing.T) {
	faults := SingleCellUniverse(6, 1)
	faults = append(faults, faults[:4]...) // paired SAFs and their duplicates collapse
	sum := &TraceSummary{Width: 1, Expect: []uint8{3, 0, 1, 3, 2, 0}}
	v := where(faults, func(i int) bool { return i%3 != 0 })
	gathered := make([]Fault, 0, v.Len())
	for i := 0; i < v.Len(); i++ {
		gathered = append(gathered, v.At(i))
	}
	got := CollapseView(v, sum)
	want := Collapse(gathered, sum)
	if len(want.Reps) == len(want.Map) {
		t.Fatal("test premise broken: nothing in the subset merges")
	}
	if len(got.Reps) != len(want.Reps) || len(got.Map) != len(want.Map) {
		t.Fatalf("shape differs: got %d reps/%d map, want %d/%d",
			len(got.Reps), len(got.Map), len(want.Reps), len(want.Map))
	}
	for i := range want.Reps {
		if got.Reps[i] != want.Reps[i] {
			t.Errorf("rep %d: %v != %v", i, got.Reps[i], want.Reps[i])
		}
	}
	for i := range want.Map {
		if got.Map[i] != want.Map[i] {
			t.Errorf("map %d: %d != %d", i, got.Map[i], want.Map[i])
		}
	}
	// Expansion stays per view position.
	rep := make([]bool, len(got.Reps))
	for i := range rep {
		rep[i] = i%2 == 0
	}
	a, b := make([]bool, len(got.Map)), make([]bool, len(want.Map))
	got.ExpandInto(a, rep)
	want.ExpandInto(b, rep)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("expanded %d differs", i)
		}
	}
}

// TestCollapseViewDropsDeadRepresentatives: a class whose every member
// left the view contributes no representative.
func TestCollapseViewDropsDeadRepresentatives(t *testing.T) {
	faults := []Fault{
		BF{CellA: 0, BitA: 0, CellB: 1, BitB: 0, And: true},
		BF{CellA: 1, BitA: 0, CellB: 0, BitB: 0, And: true}, // mirror of 0
		SAF{Cell: 1, Bit: 0, Value: 1},
	}
	full := Collapse(faults, nil)
	if len(full.Reps) != 2 {
		t.Fatalf("full collapse reps = %d, want 2", len(full.Reps))
	}
	v := where(faults, func(i int) bool { return i == 2 })
	col := CollapseView(v, nil)
	if len(col.Reps) != 1 || col.Reps[0] != faults[2] {
		t.Fatalf("dead class not dropped: reps = %v", col.Reps)
	}
}
