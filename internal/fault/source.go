// Streaming universe generators.  Every Source in this package is an
// index-addressable pure function of (family parameters, index):
// Next/Skip/Reset must enumerate the same faults in the same order on
// every run, or checkpoint resume and the streaming≡materialized
// equivalence break.
//
//faultsim:deterministic

package fault

import "repro/internal/ram"

// This file is the streaming side of the universe builders: a Source
// is a pull-based fault generator that yields a universe in bounded
// chunks instead of materializing it as one slice, so campaign memory
// is capped by the chunk size — not the universe size.  Every universe
// family is defined here as a resumable generator; the slice-returning
// constructors in universe.go and npsf.go are thin Collect wrappers
// over them, so the two shapes cannot drift apart.
//
// All built-in sources are index-addressable (fault i of the stream is
// computed from i by arithmetic), which makes them trivially resumable
// and gives exact Counts; Next never allocates beyond the boxed fault
// headers it writes into the caller's buffer.

// Source is a pull-based fault stream.  Next fills dst with the next
// faults of the stream and returns how many were written; ok reports
// whether the stream may have more (ok == false means the source is
// exhausted — the n faults written, if any, are the last).  Count
// returns the total number of faults a freshly Reset source yields;
// exact distinguishes a guaranteed count from an estimate.  Reset
// rewinds the stream to the beginning, so one source can drive every
// stage of a multi-test campaign session.  Skip advances past the
// next n faults and returns how many were actually skipped (fewer
// only when the stream ends first) — semantically identical to
// discarding n faults via Next, but O(1) for the index-addressable
// built-in generators, which is what makes checkpoint/resume seeks
// over multi-billion-fault universes free.  A Source is single-
// threaded; concurrent drivers serialize Next behind a mutex.
type Source interface {
	Next(dst []Fault) (n int, ok bool)
	Count() (n int, exact bool)
	Reset()
	Skip(n int) int
}

// Stream is a named Source — the streaming analogue of Universe.
type Stream struct {
	Name   string
	Source Source
}

// Collect drains the source (from a fresh Reset) into one slice and
// leaves it Reset again — the bridge from the streaming builders to
// the materialized universe constructors.
func Collect(s Source) []Fault {
	s.Reset()
	var out []Fault
	if n, exact := s.Count(); exact {
		out = make([]Fault, 0, n)
	}
	buf := make([]Fault, 4096)
	for {
		n, ok := s.Next(buf)
		out = append(out, buf[:n]...)
		if !ok {
			break
		}
	}
	s.Reset()
	return out
}

// genSource adapts an index-addressable family — count faults, the
// i-th computed by at — into a resumable Source.
type genSource struct {
	n   int
	at  func(i int) Fault
	pos int
}

func (g *genSource) Next(dst []Fault) (int, bool) {
	n := len(dst)
	if rem := g.n - g.pos; n > rem {
		n = rem
	}
	for i := 0; i < n; i++ {
		dst[i] = g.at(g.pos + i)
	}
	g.pos += n
	return n, g.pos < g.n
}

func (g *genSource) Count() (int, bool) { return g.n, true }

func (g *genSource) Reset() { g.pos = 0 }

func (g *genSource) Skip(n int) int {
	if rem := g.n - g.pos; n > rem {
		n = rem
	}
	if n < 0 {
		n = 0
	}
	g.pos += n
	return n
}

// SliceSource adapts an already-materialized fault slice to the
// Source interface.
func SliceSource(faults []Fault) Source {
	return &genSource{n: len(faults), at: func(i int) Fault { return faults[i] }}
}

// concatSource chains several sources back to back.
type concatSource struct {
	srcs []Source
	cur  int
}

// ConcatSource yields the sources' faults in order, one source after
// the other; Count is the sum (exact only when every part is exact).
func ConcatSource(srcs ...Source) Source {
	return &concatSource{srcs: srcs}
}

func (c *concatSource) Next(dst []Fault) (int, bool) {
	total := 0
	for total < len(dst) && c.cur < len(c.srcs) {
		n, ok := c.srcs[c.cur].Next(dst[total:])
		total += n
		if !ok {
			c.cur++
		}
	}
	return total, c.cur < len(c.srcs)
}

func (c *concatSource) Count() (int, bool) {
	total, exact := 0, true
	for _, s := range c.srcs {
		n, e := s.Count()
		total += n
		exact = exact && e
	}
	return total, exact
}

func (c *concatSource) Reset() {
	for _, s := range c.srcs {
		s.Reset()
	}
	c.cur = 0
}

func (c *concatSource) Skip(n int) int {
	total := 0
	for total < n && c.cur < len(c.srcs) {
		k := c.srcs[c.cur].Skip(n - total)
		total += k
		if total < n {
			// The current part ended before satisfying the seek.
			c.cur++
		}
	}
	return total
}

// SingleCellSource streams every SAF and TF instance of an n-cell,
// m-bit memory: 4 faults per bit (SA0, SA1, TF↑, TF↓).
func SingleCellSource(n, m int) Source {
	return &genSource{n: 4 * n * m, at: func(i int) Fault {
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
	}}
}

// StuckOpenSource streams one SOF per cell.
func StuckOpenSource(n int) Source {
	return &genSource{n: n, at: func(i int) Fault { return SOF{Cell: i} }}
}

// RetentionSource streams DRF faults (decay to 0 and to 1) for every
// bit, with the given decay delay in operations.
func RetentionSource(n, m int, delay uint64) Source {
	return &genSource{n: 2 * n * m, at: func(i int) Fault {
		b := i / 2
		return DRF{Cell: b / m, Bit: b % m, Decay: ram.Word(i % 2), Delay: delay}
	}}
}

// DecoderSource streams the address-decoder faults of DecoderUniverse:
// per address one AFNone, plus AFAlias and AFMulti against the next
// address (wrapping).
func DecoderSource(n int) Source {
	if n < 2 {
		panic("fault: decoder universe needs at least 2 cells")
	}
	return &genSource{n: 3 * n, at: func(i int) Fault {
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
	}}
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
	return &genSource{n: couplingSubTypes * len(pairs), at: func(i int) Fault {
		return couplingAt(pairs[i/couplingSubTypes], i%couplingSubTypes)
	}}
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
	return &genSource{n: n * (n - 1) * couplingSubTypes, at: func(i int) Fault {
		pi, sub := i/couplingSubTypes, i%couplingSubTypes
		a := pi / (n - 1)
		v := pi % (n - 1)
		if v >= a {
			v++
		}
		return couplingAt(CouplingPair{AggCell: a, VicCell: v}, sub)
	}}
}

// IntraWordSource streams intra-word coupling faults for every ordered
// bit pair of every cell: CFin ↑/↓ and CFid ↑/↓ × 0/1 (6 per ordered
// pair).  Requires m >= 2.
func IntraWordSource(n, m int) Source {
	if m < 2 {
		panic("fault: intra-word universe needs word width >= 2")
	}
	perCell := 6 * m * (m - 1)
	return &genSource{n: n * perCell, at: func(i int) Fault {
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
	}}
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
	return &genSource{n: len(bases) * perBase, at: func(i int) Fault {
		nb := GridNeighbourhood(int(bases[i/perBase]), n, width)
		r := i % perBase
		return SNPSF{Nb: nb, Pattern: ram.Word((r / 2) * stride), Value: ram.Word(r % 2)}
	}}
}

// ANPSFSource streams active NPSF faults: per interior cell, each of
// the four neighbours as trigger, both directions, patterns
// subsampled by stride.
func ANPSFSource(n, width, stride int) Source {
	bases := completeBases(n, width)
	pc, stride := npsfPatterns(stride)
	perBase := 4 * 2 * pc
	return &genSource{n: len(bases) * perBase, at: func(i int) Fault {
		nb := GridNeighbourhood(int(bases[i/perBase]), n, width)
		r := i % perBase
		trig := r / (2 * pc)
		r %= 2 * pc
		p := ram.Word((r / 2) * stride)
		if r%2 == 0 {
			return ANPSF{Nb: nb, Trigger: trig, Up: true, Pattern: p, Value: 0}
		}
		return ANPSF{Nb: nb, Trigger: trig, Up: false, Pattern: p, Value: 1}
	}}
}
