package fault

import (
	"fmt"
)

// rng is a small deterministic xorshift64* generator so fault-universe
// sampling is reproducible across platforms and Go releases (math/rand
// stream stability is not guaranteed between major versions).
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("fault: intn bound must be positive")
	}
	return int(r.next() % uint64(n))
}

// SingleCellUniverse enumerates every SAF and TF instance of an
// n-cell, m-bit memory: 4 faults per bit (SA0, SA1, TF↑, TF↓).
func SingleCellUniverse(n, m int) []Fault {
	return Collect(SingleCellSource(n, m))
}

// StuckOpenUniverse enumerates one SOF per cell.
func StuckOpenUniverse(n int) []Fault {
	return Collect(StuckOpenSource(n))
}

// RetentionUniverse enumerates DRF faults (decay to 0 and to 1) for
// every bit, with the given decay delay in operations.
func RetentionUniverse(n, m int, delay uint64) []Fault {
	return Collect(RetentionSource(n, m, delay))
}

// DecoderUniverse enumerates address-decoder faults: for each address,
// one AFNone, plus AFAlias and AFMulti against a deterministic partner
// (the next address, wrapping) — the functional reductions of van de
// Goor's four decoder fault classes.
func DecoderUniverse(n int) []Fault {
	return Collect(DecoderSource(n))
}

// CouplingPair is an aggressor/victim bit pair used by the coupling
// universe builders.
type CouplingPair struct {
	AggCell, AggBit int
	VicCell, VicBit int
}

// SamplePairs draws count distinct inter-cell aggressor/victim bit
// pairs uniformly (deterministically from seed).  n*m must be >= 2.
func SamplePairs(n, m, count int, seed int64) []CouplingPair {
	if n < 2 {
		panic("fault: coupling pairs need at least 2 cells")
	}
	r := newRNG(seed)
	seen := make(map[[4]int]bool, count)
	out := make([]CouplingPair, 0, count)
	for len(out) < count {
		p := CouplingPair{
			AggCell: r.intn(n), AggBit: r.intn(m),
			VicCell: r.intn(n), VicBit: r.intn(m),
		}
		if p.AggCell == p.VicCell {
			continue // intra-word pairs are generated separately
		}
		key := [4]int{p.AggCell, p.AggBit, p.VicCell, p.VicBit}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out
}

// AdjacentPairs returns all aggressor/victim pairs between physically
// neighbouring cells (c, c+1) in both directions, bit 0 to bit 0 —
// the classical two-cell coupling locality assumption.
func AdjacentPairs(n int) []CouplingPair {
	out := make([]CouplingPair, 0, 2*(n-1))
	for c := 0; c+1 < n; c++ {
		out = append(out,
			CouplingPair{AggCell: c, VicCell: c + 1},
			CouplingPair{AggCell: c + 1, VicCell: c},
		)
	}
	return out
}

// CouplingUniverse expands each pair into the full sub-type set:
// 2 CFin (↑,↓), 4 CFid (↑/↓ × forced 0/1), 4 CFst (aggressor 0/1 ×
// forced 0/1, skipping the two fault-free combinations is not possible
// — all four force the victim) and 2 BF (AND, OR), i.e. 12 faults per
// pair.
func CouplingUniverse(pairs []CouplingPair) []Fault {
	return Collect(CouplingSource(pairs))
}

// IntraWordUniverse enumerates intra-word coupling faults for every
// ordered bit pair of every cell: CFin ↑/↓ and CFid ↑/↓ × 0/1 (6 per
// ordered pair).  Requires m >= 2.
func IntraWordUniverse(n, m int) []Fault {
	return Collect(IntraWordSource(n, m))
}

// Universe is a named collection of faults for a campaign.
type Universe struct {
	Name   string
	Faults []Fault
}

// Len returns the number of faults.
func (u Universe) Len() int { return len(u.Faults) }

// StandardUniverse assembles the evaluation universe used by the
// experiment harness for an n-cell, m-bit memory: all single-cell
// faults, all stuck-open faults, decoder faults, adjacent-cell coupling
// faults, and (for m >= 2) intra-word faults on every cell.
// couplingSamples > 0 adds that many random long-distance pairs.
func StandardUniverse(n, m, couplingSamples int, seed int64) Universe {
	var fs []Fault
	fs = append(fs, SingleCellUniverse(n, m)...)
	fs = append(fs, StuckOpenUniverse(n)...)
	fs = append(fs, DecoderUniverse(n)...)
	pairs := AdjacentPairs(n)
	if couplingSamples > 0 {
		pairs = append(pairs, SamplePairs(n, m, couplingSamples, seed)...)
	}
	fs = append(fs, CouplingUniverse(pairs)...)
	if m >= 2 {
		fs = append(fs, IntraWordUniverse(n, m)...)
	}
	return Universe{
		Name:   fmt.Sprintf("standard(n=%d,m=%d,+%d pairs)", n, m, couplingSamples),
		Faults: fs,
	}
}
