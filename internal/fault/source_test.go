package fault

import (
	"testing"
)

// Every streaming builder must reproduce its materialized constructor
// exactly: same count, same faults, same order — whatever the range or
// the cursor's pull granularity — and Reset must rewind the cursor.

func sourceCases() []struct {
	name string
	src  Source
	want []Fault
} {
	pairs := append(AdjacentPairs(9), SamplePairs(9, 4, 6, 3)...)
	return []struct {
		name string
		src  Source
		want []Fault
	}{
		{"single-cell", SingleCellSource(7, 4), SingleCellUniverse(7, 4)},
		{"stuck-open", StuckOpenSource(11), StuckOpenUniverse(11)},
		{"retention", RetentionSource(5, 3, 64), RetentionUniverse(5, 3, 64)},
		{"decoder", DecoderSource(9), DecoderUniverse(9)},
		{"coupling", CouplingSource(pairs), CouplingUniverse(pairs)},
		{"intra-word", IntraWordSource(6, 4), IntraWordUniverse(6, 4)},
		{"npsf", NPSFSource(30, 6, 3), NPSFUniverse(30, 6, 3)},
		{"anpsf", ANPSFSource(30, 6, 5), ANPSFUniverse(30, 6, 5)},
		{"slice", SliceSource(StuckOpenUniverse(4)), StuckOpenUniverse(4)},
		{"concat", ConcatSource(StuckOpenSource(3), DecoderSource(4)),
			append(StuckOpenUniverse(3), DecoderUniverse(4)...)},
	}
}

func drain(t *testing.T, s Source, chunk int) []Fault {
	t.Helper()
	var out []Fault
	buf := make([]Fault, chunk)
	for {
		n, ok := s.Next(buf)
		out = append(out, buf[:n]...)
		if !ok {
			break
		}
		if n == 0 {
			t.Fatal("source stalled: Next returned (0, true)")
		}
	}
	return out
}

func TestSourcesMatchMaterializedConstructors(t *testing.T) {
	for _, tc := range sourceCases() {
		if n, _ := tc.src.Count(); n != len(tc.want) {
			t.Errorf("%s: Count = %d, want %d", tc.name, n, len(tc.want))
		}
		for _, chunk := range []int{1, 7, 4096} {
			tc.src.Reset()
			got := drain(t, tc.src, chunk)
			if len(got) != len(tc.want) {
				t.Fatalf("%s chunk=%d: %d faults, want %d", tc.name, chunk, len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("%s chunk=%d: fault %d = %v, want %v", tc.name, chunk, i, got[i], tc.want[i])
				}
			}
		}
		// Reset mid-stream rewinds to the first fault.
		tc.src.Reset()
		buf := make([]Fault, 3)
		tc.src.Next(buf)
		tc.src.Reset()
		if n, _ := tc.src.Next(buf[:1]); n != 1 || buf[0] != tc.want[0] {
			t.Errorf("%s: Reset did not rewind (got %v)", tc.name, buf[0])
		}
	}
}

// Fill must write the materialized universe's faults at exactly the
// requested indices — the contract resume and partitioning rest on —
// for every source shape and range, including ranges that straddle
// concatenated parts, and must refuse a range outside [0, Count()).
func TestFillMatchesMaterialized(t *testing.T) {
	for _, tc := range sourceCases() {
		n := len(tc.want)
		for _, r := range [][2]int{{0, n}, {0, 0}, {n, n}, {1, 4}, {n / 3, 2 * n / 3}, {n - 1, n}} {
			lo, hi := r[0], r[1]
			dst := make([]Fault, hi-lo)
			tc.src.Fill(dst, lo)
			if !faultsEqual(dst, tc.want[lo:hi]) {
				t.Errorf("%s: Fill of [%d, %d) diverges from the materialized universe", tc.name, lo, hi)
			}
		}
		for _, r := range [][2]int{{-1, 0}, {n - 1, n + 1}, {n + 1, n + 1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Fill of [%d, %d) outside [0, %d) did not panic", tc.name, r[0], r[1], n)
					}
				}()
				tc.src.Fill(make([]Fault, r[1]-r[0]), r[0])
			}()
		}
	}
}

func TestFullCouplingSourceExhaustive(t *testing.T) {
	const n = 5
	src := FullCouplingSource(n)
	if count, _ := src.Count(); count != n*(n-1)*12 {
		t.Fatalf("Count = %d, want %d", count, n*(n-1)*12)
	}
	faults := Collect(src)
	// Every ordered (aggressor, victim) pair appears exactly 12 times,
	// with the per-pair sub-type order of CouplingUniverse.
	seen := make(map[[2]int]int)
	for _, f := range faults {
		switch c := f.(type) {
		case CFin:
			seen[[2]int{c.AggCell, c.VicCell}]++
		case CFid:
			seen[[2]int{c.AggCell, c.VicCell}]++
		case CFst:
			seen[[2]int{c.AggCell, c.VicCell}]++
		case BF:
			seen[[2]int{c.CellA, c.CellB}]++
		default:
			t.Fatalf("unexpected fault type %T", f)
		}
	}
	for a := 0; a < n; a++ {
		for v := 0; v < n; v++ {
			want := 12
			if a == v {
				want = 0
			}
			if seen[[2]int{a, v}] != want {
				t.Errorf("pair (%d,%d): %d faults, want %d", a, v, seen[[2]int{a, v}], want)
			}
		}
	}
	// The sub-type expansion matches CouplingUniverse's for the same
	// pair.
	want := CouplingUniverse([]CouplingPair{{AggCell: 0, VicCell: 1}})
	for i := 0; i < 12; i++ {
		if faults[i] != want[i] {
			t.Errorf("sub-type %d: %v, want %v", i, faults[i], want[i])
		}
	}
}

func TestBitSet(t *testing.T) {
	b := NewBitSet(100)
	for _, i := range []int{0, 63, 64, 99} {
		if b.Get(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	// Growth beyond the initial capacity; reads past the end are false.
	b.Set(1000)
	if !b.Get(1000) || b.Get(5000) {
		t.Fatal("grown Set/OOB Get wrong")
	}
	c := b.Clone()
	c.Set(1)
	if b.Get(1) || !c.Get(1) {
		t.Fatal("Clone not independent")
	}
}
