package fault

import (
	"reflect"
	"testing"

	"repro/internal/ram"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeCollapseInput turns fuzz bytes into a fault list over a small
// geometry (n cells of m bits on a row-major grid of width w) and a
// TraceSummary of that geometry.  The summary is absent, affine or
// plain, and its Expect entries take any polarity set with or without
// ExpectFolded.  The fault list mixes every kind; bridges and decoder
// faults draw both ends from the few cells, so self-bridges, mirrored
// bridges and self-aliases come up often, grid edges leave NPSF
// neighbourhoods incomplete, and one kind repeats an earlier fault,
// mirrored when it is a bridge.
func decodeCollapseInput(data []byte) ([]Fault, *TraceSummary) {
	b := fuzzBytes(data)
	n, m, w := 2+b.next()%14, 1+b.next()%4, 1+b.next()%4
	var sum *TraceSummary
	if mode := b.next() % 3; mode > 0 {
		sum = &TraceSummary{Width: m, Affine: mode == 1, Expect: make([]uint8, n*m)}
		for i := range sum.Expect {
			sum.Expect[i] = uint8(b.next()) & (3 | ExpectFolded)
		}
	}
	cell := func() int { return b.next() % n }
	bit := func() int { return b.next() % m }
	val := func() ram.Word { return ram.Word(b.next() & 1) }
	up := func() bool { return b.next()&1 == 1 }
	var faults []Fault
	for count := b.next() % 128; len(faults) < count; {
		var f Fault
		switch b.next() % 12 {
		case 0:
			f = SAF{Cell: cell(), Bit: bit(), Value: val()}
		case 1:
			f = TF{Cell: cell(), Bit: bit(), Up: up()}
		case 2:
			f = SOF{Cell: cell()}
		case 3:
			f = DRF{Cell: cell(), Bit: bit(), Decay: val(), Delay: uint64(b.next())}
		case 4:
			f = AF{Kind: AFKind(b.next() % 3), Addr: cell(), Target: cell()}
		case 5:
			f = CFin{cell(), bit(), cell(), bit(), up()}
		case 6:
			f = CFid{cell(), bit(), cell(), bit(), up(), val()}
		case 7:
			f = CFst{cell(), bit(), cell(), bit(), val(), val()}
		case 8:
			f = BF{cell(), bit(), cell(), bit(), up()}
		case 9:
			f = SNPSF{Nb: GridNeighbourhood(cell(), n, w), Pattern: ram.Word(b.next() % 16), Value: val()}
		case 10:
			f = ANPSF{Nb: GridNeighbourhood(cell(), n, w), Trigger: b.next() % 4, Up: up(),
				Pattern: ram.Word(b.next() % 16), Value: val()}
		default:
			if len(faults) == 0 {
				continue
			}
			f = faults[b.next()%len(faults)]
			if bf, ok := f.(BF); ok && up() {
				f = BF{bf.CellB, bf.BitB, bf.CellA, bf.BitA, bf.And}
			}
		}
		faults = append(faults, f)
	}
	return faults, sum
}

// checkCollapsed asserts the structural contract of a collapse of
// faults: Map indexes Reps, representatives appear in first-occurrence
// order, each fault's representative carries the fault's key, a fault
// no rule can merge is its own class, and no two representatives share
// a key.
func checkCollapsed(t *testing.T, faults []Fault, sum *TraceSummary, col Collapsed) {
	t.Helper()
	if len(col.Map) != len(faults) {
		t.Fatalf("Map has %d entries for %d faults", len(col.Map), len(faults))
	}
	next := 0 // representatives opened so far
	for i, f := range faults {
		r := col.Map[i]
		if r < 0 || r >= len(col.Reps) {
			t.Fatalf("Map[%d] = %d outside %d representatives", i, r, len(col.Reps))
		}
		opened := r == next
		switch {
		case opened:
			if col.Reps[r] != f {
				t.Fatalf("representative %d is %v, want its first member %v (fault %d)", r, col.Reps[r], f, i)
			}
			next++
		case r > next:
			t.Fatalf("Map[%d] = %d skips past representative %d: not first-occurrence order", i, r, next)
		}
		k, ok := candidateKey(f, sum)
		rk, rok := candidateKey(col.Reps[r], sum)
		if ok != rok || k != rk {
			t.Fatalf("fault %d (%v) key %v/%v, its representative %v key %v/%v", i, f, k, ok, col.Reps[r], rk, rok)
		}
		if !ok && !opened {
			t.Fatalf("fault %d (%v) no rule can merge shares representative %d", i, f, r)
		}
	}
	if next != len(col.Reps) {
		t.Fatalf("%d representatives, %d of them used", len(col.Reps), next)
	}
	seen := make(map[collapseKey]int)
	for r, rep := range col.Reps {
		if k, ok := candidateKey(rep, sum); ok {
			if q, dup := seen[k]; dup {
				t.Fatalf("representatives %d and %d share key %v", q, r, k)
			}
			seen[k] = r
		}
	}
}

// FuzzCollapse: Collapse keeps its structural contract on any fault
// mix, and a worker's Collapser, warmed on other chunks, returns
// exactly what a fresh Collapse returns — nil precisely when nothing
// merged.
func FuzzCollapse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		faults, sum := decodeCollapseInput(data)
		fresh := Collapse(faults, sum)
		checkCollapsed(t, faults, sum, fresh)

		var c Collapser
		c.Collapse(faults[len(faults)/2:], sum)
		reversed := make([]Fault, len(faults))
		for i, flt := range faults {
			reversed[len(faults)-1-i] = flt
		}
		c.Collapse(reversed, sum)
		for pass := 0; pass < 2; pass++ {
			got := c.Collapse(faults, sum)
			if got == nil {
				if len(fresh.Reps) != len(faults) {
					t.Fatalf("pass %d: warmed collapser merged nothing, fresh Collapse kept %d of %d faults", pass, len(fresh.Reps), len(faults))
				}
				continue
			}
			if len(got.Reps) == len(faults) {
				t.Fatalf("pass %d: warmed collapser reports a merge but kept all %d faults", pass, len(faults))
			}
			if !reflect.DeepEqual(got.Reps, fresh.Reps) || !reflect.DeepEqual(got.Map, fresh.Map) {
				t.Fatalf("pass %d: warmed collapser differs from fresh Collapse\nwarm:  %v %v\nfresh: %v %v", pass, got.Reps, got.Map, fresh.Reps, fresh.Map)
			}
		}
	})
}
