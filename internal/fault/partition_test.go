package fault

import (
	"reflect"
	"sync"
	"testing"
)

// A SubSource must be indistinguishable from slicing the collected
// universe, and PartitionRange's ranges must tile the universe exactly
// — including when the k views share one underlying source.

func faultsEqual(a, b []Fault) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestSubSourceMatchesSlicing(t *testing.T) {
	for _, tc := range sourceCases() {
		total := len(tc.want)
		ranges := [][2]int{
			{0, total},
			{0, 0},
			{total, total},
			{0, total / 2},
			{total / 2, total},
			{total / 3, 2 * total / 3},
			{1, total - 1},
			{0, total + 100}, // clamped to the exact count
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			if hi < lo {
				continue
			}
			sub := SubSource(tc.src, lo, hi)
			wantHi := hi
			if wantHi > total {
				wantHi = total
			}
			want := tc.want[lo:wantHi]
			if n, _ := sub.Count(); n != len(want) {
				t.Errorf("%s[%d:%d): Count = %d, want %d", tc.name, lo, hi, n, len(want))
			}
			if got := Collect(sub); !faultsEqual(got, want) {
				t.Errorf("%s[%d:%d): Fill of the view diverges from the slice", tc.name, lo, hi)
			}
			for _, chunk := range []int{1, 7, 4096} {
				sub.Reset()
				got := drain(t, sub, chunk)
				if !faultsEqual(got, want) {
					t.Errorf("%s[%d:%d) chunk=%d: drained %d faults, want %d (or order differs)",
						tc.name, lo, hi, chunk, len(got), len(want))
				}
			}
		}
	}
}

func TestSubSourceResetRewinds(t *testing.T) {
	src := StuckOpenSource(32)
	sub := SubSource(src, 5, 25)
	first := drain(t, sub, 7)
	sub.Reset()
	second := drain(t, sub, 3)
	if !faultsEqual(first, second) {
		t.Fatal("Reset did not rewind the sub-source to its range start")
	}
}

func TestPartitionRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000, 12345} {
		for _, k := range []int{1, 2, 3, 7, 16} {
			prevHi, min, max := 0, n+1, -1
			for i := 0; i < k; i++ {
				lo, hi := PartitionRange(n, i, k)
				if lo != prevHi {
					t.Fatalf("n=%d k=%d i=%d: lo=%d, want %d (ranges must tile)", n, k, i, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d k=%d i=%d: hi=%d < lo=%d", n, k, i, hi, lo)
				}
				if sz := hi - lo; sz < min {
					min = sz
				} else if sz > max {
					max = sz
				}
				if sz := hi - lo; sz > max {
					max = sz
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d k=%d: ranges end at %d, want %d", n, k, prevHi, n)
			}
			if max >= 0 && max-min > 1 {
				t.Fatalf("n=%d k=%d: partition sizes spread %d..%d, want near-equal", n, k, min, max)
			}
		}
	}
}

// The SubSource views of PartitionRange's ranges tile the universe:
// concatenated, they are exactly the unpartitioned universe.
func TestPartitionTilesUniverse(t *testing.T) {
	for _, tc := range sourceCases() {
		n := len(tc.want)
		for _, k := range []int{1, 2, 3, 7} {
			var got []Fault
			for i := range k {
				lo, hi := PartitionRange(n, i, k)
				got = append(got, Collect(SubSource(tc.src, lo, hi))...)
			}
			if !faultsEqual(got, tc.want) {
				t.Errorf("%s k=%d: concatenated partitions diverge from the full universe", tc.name, k)
			}
		}
	}
}

// Partition views share one underlying source, which holds no state
// Fill touches: filling every view from its own goroutine at once, in
// small interleaved ranges, must still enumerate each range exactly.
func TestPartitionSharedSourceInterleaved(t *testing.T) {
	src := NPSFSource(40, 8, 3)
	want := Collect(src)
	const k = 3
	outs := make([][]Fault, k)
	var wg sync.WaitGroup
	for i := range outs {
		lo, hi := PartitionRange(len(want), i, k)
		view := SubSource(src, lo, hi)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = make([]Fault, hi-lo)
			for j := 0; j < hi-lo; j += 5 {
				view.Fill(outs[i][j:min(j+5, hi-lo)], j)
			}
		}()
	}
	wg.Wait()
	var got []Fault
	for _, o := range outs {
		got = append(got, o...)
	}
	if !faultsEqual(got, want) {
		t.Fatal("concurrent fills of shared-source partitions corrupted the enumeration")
	}
}

func TestBitSetOr(t *testing.T) {
	a, b := NewBitSet(10), NewBitSet(200)
	a.Set(3)
	a.Set(9)
	b.Set(9)
	b.Set(150)
	a.Or(b)
	for _, i := range []int{3, 9, 150} {
		if !a.Get(i) {
			t.Errorf("bit %d lost in Or", i)
		}
	}
	if a.Count() != 3 {
		t.Errorf("Count = %d, want 3", a.Count())
	}
	if got, want := len(a.Words()), len(b.Words()); got != want {
		t.Errorf("Or did not grow the receiver: %d words, want %d", got, want)
	}
	a.Or(nil)
	if a.Count() != 3 {
		t.Error("Or(nil) mutated the receiver")
	}
}

// ClearRun walks the clear runs of a bitmap: across word boundaries,
// past its capacity (which reads clear), capped at end, and over a nil
// bitmap (all clear).
func TestBitSetClearRun(t *testing.T) {
	b := NewBitSet(200)
	for _, i := range []int{0, 1, 5, 63, 64, 65, 130} {
		b.Set(i)
	}
	var got [][2]int
	for i := 0; ; {
		lo, hi := b.ClearRun(i, 300)
		if lo == 300 {
			break
		}
		got = append(got, [2]int{lo, hi})
		i = hi
	}
	want := [][2]int{{2, 5}, {6, 63}, {66, 130}, {131, 300}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clear runs %v, want %v", got, want)
	}
	if lo, hi := b.ClearRun(63, 66); lo != 66 || hi != 66 {
		t.Errorf("ClearRun over set bits = [%d, %d), want [66, 66)", lo, hi)
	}
	if lo, hi := b.ClearRun(10, 20); lo != 10 || hi != 20 {
		t.Errorf("ClearRun capped at end = [%d, %d), want [10, 20)", lo, hi)
	}
	var none *BitSet
	if lo, hi := none.ClearRun(7, 9); lo != 7 || hi != 9 {
		t.Errorf("nil ClearRun = [%d, %d), want [7, 9)", lo, hi)
	}
}
