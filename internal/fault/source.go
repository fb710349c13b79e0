// Fault universes as index functions.  Every Source in this package
// computes fault i from (family parameters, i) alone, so Fill must
// write the same faults for the same indices on every run, or
// checkpoint resume and the streaming≡materialized equivalence break.
//
//faultsim:deterministic

package fault

import (
	"fmt"
	"sort"

	"repro/internal/ram"
)

// This file is the streaming side of the universe builders: a Source
// is a fault universe of known size whose index ranges are generated
// on demand, so a campaign fills bounded chunks instead of
// materializing the universe as one slice, and campaign memory is
// capped by the chunk size — not the universe size.  Every universe
// family is defined here as an index function; the slice-returning
// constructors in universe.go and npsf.go are thin Collect wrappers
// over them, so the two shapes cannot drift apart.
//
// Because fault i is computed from i by arithmetic, resume and
// partitioning are index arithmetic too, and any number of workers
// (or sessions) may fill disjoint or overlapping ranges of one Source
// at once.  Fill never allocates beyond the boxed fault headers it
// writes into the caller's buffer.

// Source is a fault universe: Count faults, fault i at universe index
// i.  Fill writes faults [lo, lo+len(dst)) into dst; it holds no
// state, is safe for concurrent use, and panics on a range outside
// [0, Count()).  The second result of Count is always true.
//
// Next and Reset are a cursor over Fill for sequential readers: Next
// fills dst with the faults after the previous call's and reports
// whether any remain, and Reset rewinds to fault 0.  The cursor is
// the one piece of state a Source carries, so it is not safe for
// concurrent use; the campaign drivers never call it.
type Source interface {
	Count() (n int, exact bool)
	Fill(dst []Fault, lo int)
	Next(dst []Fault) (n int, ok bool)
	Reset()
}

// Stream is a named Source — the streaming analogue of Universe.
type Stream struct {
	Name   string
	Source Source
}

// Collect materializes the source as one slice — the bridge from the
// streaming builders to the materialized universe constructors.
func Collect(s Source) []Fault {
	n, _ := s.Count()
	out := make([]Fault, n)
	s.Fill(out, 0)
	return out
}

// source is the one Source implementation: n faults, whose range
// [lo, lo+len(dst)) fill writes into dst, plus Next's cursor.
type source struct {
	n    int
	fill func(dst []Fault, lo int)
	pos  int
}

// newSource is the universe of n faults whose fault i is at(i).
func newSource(n int, at func(i int) Fault) Source {
	return &source{n: n, fill: func(dst []Fault, lo int) {
		for i := range dst {
			dst[i] = at(lo + i)
		}
	}}
}

func (s *source) Count() (int, bool) { return s.n, true }

func (s *source) Fill(dst []Fault, lo int) {
	if lo < 0 || lo > s.n-len(dst) {
		panic(fmt.Sprintf("fault: Fill of [%d, %d) outside the %d-fault universe", lo, lo+len(dst), s.n))
	}
	s.fill(dst, lo)
}

func (s *source) Next(dst []Fault) (int, bool) {
	n := min(len(dst), s.n-s.pos)
	s.Fill(dst[:n], s.pos)
	s.pos += n
	return n, s.pos < s.n
}

func (s *source) Reset() { s.pos = 0 }

// SliceSource adapts an already-materialized fault slice to the
// Source interface.
func SliceSource(faults []Fault) Source {
	return &source{n: len(faults), fill: func(dst []Fault, lo int) { copy(dst, faults[lo:]) }}
}

// ConcatSource chains the sources back to back: srcs[k]'s faults start
// at the sum of the earlier sources' Counts.
func ConcatSource(srcs ...Source) Source {
	offs := make([]int, len(srcs)+1)
	for k, s := range srcs {
		n, _ := s.Count()
		offs[k+1] = offs[k] + n
	}
	return &source{n: offs[len(srcs)], fill: func(dst []Fault, lo int) {
		// The last part starting at or before lo holds fault lo (an
		// empty part starts where the next one does).
		k := sort.SearchInts(offs, lo+1) - 1
		for len(dst) > 0 {
			m := min(len(dst), offs[k+1]-lo)
			srcs[k].Fill(dst[:m], lo-offs[k])
			dst, lo, k = dst[m:], lo+m, k+1
		}
	}}
}

// SingleCellSource streams every SAF and TF instance of an n-cell,
// m-bit memory: 4 faults per bit (SA0, SA1, TF↑, TF↓).
func SingleCellSource(n, m int) Source {
	return newSource(4*n*m, func(i int) Fault {
		b := i / 4
		c, bit := b/m, b%m
		switch i % 4 {
		case 0:
			return SAF{Cell: c, Bit: bit, Value: 0}
		case 1:
			return SAF{Cell: c, Bit: bit, Value: 1}
		case 2:
			return TF{Cell: c, Bit: bit, Up: true}
		default:
			return TF{Cell: c, Bit: bit, Up: false}
		}
	})
}

// StuckOpenSource streams one SOF per cell.
func StuckOpenSource(n int) Source {
	return newSource(n, func(i int) Fault { return SOF{Cell: i} })
}

// RetentionSource streams DRF faults (decay to 0 and to 1) for every
// bit, with the given decay delay in operations.
func RetentionSource(n, m int, delay uint64) Source {
	return newSource(2*n*m, func(i int) Fault {
		b := i / 2
		return DRF{Cell: b / m, Bit: b % m, Decay: ram.Word(i % 2), Delay: delay}
	})
}

// DecoderSource streams the address-decoder faults of DecoderUniverse:
// per address one AFNone, plus AFAlias and AFMulti against the next
// address (wrapping).
func DecoderSource(n int) Source {
	if n < 2 {
		panic("fault: decoder universe needs at least 2 cells")
	}
	return newSource(3*n, func(i int) Fault {
		a := i / 3
		partner := (a + 1) % n
		switch i % 3 {
		case 0:
			return AF{Kind: AFNone, Addr: a}
		case 1:
			return AF{Kind: AFAlias, Addr: a, Target: partner}
		default:
			return AF{Kind: AFMulti, Addr: a, Target: partner}
		}
	})
}

// couplingAt expands pair p into its sub-th coupling fault, in the
// fixed 12-fault order of CouplingUniverse: CFin↑, CFid↑/0, CFid↑/1,
// CFin↓, CFid↓/0, CFid↓/1, the four CFst states, BF-AND, BF-OR.
func couplingAt(p CouplingPair, sub int) Fault {
	switch sub {
	case 0:
		return CFin{p.AggCell, p.AggBit, p.VicCell, p.VicBit, true}
	case 1:
		return CFid{p.AggCell, p.AggBit, p.VicCell, p.VicBit, true, 0}
	case 2:
		return CFid{p.AggCell, p.AggBit, p.VicCell, p.VicBit, true, 1}
	case 3:
		return CFin{p.AggCell, p.AggBit, p.VicCell, p.VicBit, false}
	case 4:
		return CFid{p.AggCell, p.AggBit, p.VicCell, p.VicBit, false, 0}
	case 5:
		return CFid{p.AggCell, p.AggBit, p.VicCell, p.VicBit, false, 1}
	case 6:
		return CFst{p.AggCell, p.AggBit, p.VicCell, p.VicBit, 0, 0}
	case 7:
		return CFst{p.AggCell, p.AggBit, p.VicCell, p.VicBit, 0, 1}
	case 8:
		return CFst{p.AggCell, p.AggBit, p.VicCell, p.VicBit, 1, 0}
	case 9:
		return CFst{p.AggCell, p.AggBit, p.VicCell, p.VicBit, 1, 1}
	case 10:
		return BF{p.AggCell, p.AggBit, p.VicCell, p.VicBit, true}
	default:
		return BF{p.AggCell, p.AggBit, p.VicCell, p.VicBit, false}
	}
}

// couplingSubTypes is the size of the per-pair sub-type set.
const couplingSubTypes = 12

// CouplingSource streams the 12-fault sub-type expansion of each pair,
// in pair order.
func CouplingSource(pairs []CouplingPair) Source {
	return newSource(couplingSubTypes*len(pairs), func(i int) Fault {
		return couplingAt(pairs[i/couplingSubTypes], i%couplingSubTypes)
	})
}

// FullCouplingSource streams the exhaustive inter-cell coupling
// universe of an n-cell bit-oriented array: every ordered
// aggressor→victim cell pair (a ≠ v, bit 0 on both sides) expanded
// into the full 12-fault sub-type set — n·(n-1)·12 fault instances,
// the population SamplePairs-built universes estimate coverage over.
// The pairs are computed from the stream index, so nothing is
// materialized: exhaustive universes of tens of millions of instances
// stream through a campaign in chunk-sized bites (the E17 workload).
// BF is symmetric in its two ends, but collapsing is chunk-local and
// the bridges of pair (a, v) sit at least (n−1)·12 indices from those
// of (v, a): once that exceeds the 8192-fault default chunk cap (from
// n = 684), no mirror pair shares a chunk and no bridge merges.
func FullCouplingSource(n int) Source {
	if n < 2 {
		panic("fault: coupling pairs need at least 2 cells")
	}
	return newSource(n*(n-1)*couplingSubTypes, func(i int) Fault {
		pi, sub := i/couplingSubTypes, i%couplingSubTypes
		a := pi / (n - 1)
		v := pi % (n - 1)
		if v >= a {
			v++
		}
		return couplingAt(CouplingPair{AggCell: a, VicCell: v}, sub)
	})
}

// IntraWordSource streams intra-word coupling faults for every ordered
// bit pair of every cell: CFin ↑/↓ and CFid ↑/↓ × 0/1 (6 per ordered
// pair).  Requires m >= 2.
func IntraWordSource(n, m int) Source {
	if m < 2 {
		panic("fault: intra-word universe needs word width >= 2")
	}
	perCell := 6 * m * (m - 1)
	return newSource(n*perCell, func(i int) Fault {
		c, r := i/perCell, i%perCell
		pair, sub := r/6, r%6
		ba := pair / (m - 1)
		bv := pair % (m - 1)
		if bv >= ba {
			bv++
		}
		// Sub-type order of IntraWordUniverse: per direction (↑ then ↓)
		// a CFin and the two CFid polarities.
		up := sub < 3
		switch sub % 3 {
		case 0:
			return CFin{c, ba, c, bv, up}
		case 1:
			return CFid{c, ba, c, bv, up, 0}
		default:
			return CFid{c, ba, c, bv, up, 1}
		}
	})
}

// completeBases lists the interior cells of an n-cell grid of the
// given width — the bases whose four von Neumann neighbours all exist.
// O(n) ints: bounded by the memory size, never by the universe size.
func completeBases(n, width int) []int32 {
	var out []int32
	for base := 0; base < n; base++ {
		if GridNeighbourhood(base, n, width).Complete() {
			out = append(out, int32(base))
		}
	}
	return out
}

// npsfPatterns returns the number of neighbourhood patterns a stride
// subsampling visits (p = 0, stride, 2·stride, … < 16) and the
// normalized stride.
func npsfPatterns(stride int) (count, norm int) {
	if stride < 1 {
		stride = 1
	}
	return (15 + stride) / stride, stride
}

// NPSFSource streams static NPSF faults for every interior cell: per
// cell, the stride-subsampled patterns × forced values 0/1.
func NPSFSource(n, width, stride int) Source {
	bases := completeBases(n, width)
	pc, stride := npsfPatterns(stride)
	perBase := 2 * pc
	return newSource(len(bases)*perBase, func(i int) Fault {
		nb := GridNeighbourhood(int(bases[i/perBase]), n, width)
		r := i % perBase
		return SNPSF{Nb: nb, Pattern: ram.Word((r / 2) * stride), Value: ram.Word(r % 2)}
	})
}

// ANPSFSource streams active NPSF faults: per interior cell, each of
// the four neighbours as trigger, both directions, patterns
// subsampled by stride.
func ANPSFSource(n, width, stride int) Source {
	bases := completeBases(n, width)
	pc, stride := npsfPatterns(stride)
	perBase := 4 * 2 * pc
	return newSource(len(bases)*perBase, func(i int) Fault {
		nb := GridNeighbourhood(int(bases[i/perBase]), n, width)
		r := i % perBase
		trig := r / (2 * pc)
		r %= 2 * pc
		p := ram.Word((r / 2) * stride)
		if r%2 == 0 {
			return ANPSF{Nb: nb, Trigger: trig, Up: true, Pattern: p, Value: 0}
		}
		return ANPSF{Nb: nb, Trigger: trig, Up: false, Pattern: p, Value: 1}
	})
}
