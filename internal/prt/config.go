// Package prt implements pseudo-ring testing (PRT), the paper's
// primary contribution: a RAM self-test in which the memory array
// emulates a linear automaton over a Galois field.
//
// A π-test iteration (Eq. 1 of the paper) seeds the first k cells of
// the traversal with the automaton's initial state Init, then for each
// subsequent cell reads the k previous cells and writes the recurrence
// combination
//
//	c_{i+k} = a₁·c_{i+k-1} ⊕ … ⊕ a_k·c_i      (aⱼ ∈ GF(2^m))
//
// so the test data background generates itself out of the memory's own
// contents ("testing memory by its own components").  At the end, the
// observed final state Fin (the last k cells) is compared with the
// a-priori prediction Fin* obtained from the virtual LFSR; any
// difference signals a fault.
//
// The package provides single-port iterations with ascending,
// descending and random trajectories, multi-iteration schemes (the
// paper's 3-iteration full-coverage recipe), bit-sliced parallel
// automatons for intra-word faults, the dual-port scheme of Fig. 2
// with 2n-cycle complexity, content-preserving (transparent) runs and
// cell-level diagnosis.
package prt

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/lfsr"
)

// Trajectory is the order in which a π-iteration visits memory cells —
// the third of the paper's §3 quality factors (after polynomial
// structure and initial values).
type Trajectory int

const (
	// Ascending visits addresses 0, 1, …, n-1.
	Ascending Trajectory = iota
	// Descending visits addresses n-1, n-2, …, 0.
	Descending
	// Random visits addresses in a deterministic pseudo-random
	// permutation derived from Config.PermSeed.
	Random
	// RandomReversed visits the Random permutation of the same PermSeed
	// backwards (the mirror of a Random trajectory).
	RandomReversed
)

func (t Trajectory) String() string {
	switch t {
	case Ascending:
		return "ascending"
	case Descending:
		return "descending"
	case Random:
		return "random"
	case RandomReversed:
		return "random-reversed"
	default:
		return fmt.Sprintf("Trajectory(%d)", int(t))
	}
}

// Config describes one π-test iteration.
type Config struct {
	// Gen is the generator polynomial g(x) of the virtual automaton;
	// it fixes the field GF(2^m) and the register length k.
	Gen lfsr.GenPoly
	// Seed is the automaton's initial state Init (length k).  Seed[0]
	// is written to the first cell of the trajectory.
	Seed []gf.Elem
	// Offset is the affine constant q added to every recurrence value
	// (0 for the plain linear automaton).  Offset = 2^m-1 with a
	// complemented seed generates the bitwise complement of the plain
	// TDB — the paper's "specific TDB" needs both backgrounds so every
	// bit of every cell is exercised at 0 and at 1.
	Offset gf.Elem
	// Trajectory selects the address order.
	Trajectory Trajectory
	// PermSeed parameterises the Random trajectory's permutation.
	PermSeed int64
	// Ring selects wrap-around mode: the walk continues past the last
	// cell and re-writes the first k cells through the recurrence, so
	// the automaton travels the array as a closed ring (n steps total)
	// and Fin is read back from the seed cells.  The paper's ring
	// closure condition is then n ≡ 0 (mod period) exactly.
	Ring bool
	// Verify adds a full read-back pass after the walk comparing every
	// cell against the expected TDB (n extra reads).  The plain
	// signature check compares only Fin with Fin*; Verify removes the
	// aliasing blind spot for victims the walk never re-reads.
	Verify bool
	// CaptureStale adds a pre-read of every target cell before it is
	// rewritten, compared against StaleExpect (one extra read per
	// cell).  This is the transparent-BIST refinement of the π-test:
	// corruption left behind by a previous iteration (e.g. a coupling
	// victim the walk already passed) is observed at its rewrite
	// instead of being silently destroyed.  Ignored when StaleExpect is
	// nil.
	CaptureStale bool
	// StaleExpect, indexed by ADDRESS, is the expected pre-iteration
	// content of every cell (normally the previous iteration's
	// predicted final contents).  Resolved automatically by Scheme.Run.
	StaleExpect []gf.Elem
	// MirrorOf, when > 0, marks this iteration as the mirror of the
	// scheme iteration with 0-based index MirrorOf-1 (build it with the
	// Mirrored helper): it regenerates exactly the same per-cell TDB
	// but walks the trajectory in the opposite direction, using the
	// reciprocal recurrence and the end state as seed.  The concrete
	// Config is resolved against the memory size by Scheme.Resolve; a
	// Config with MirrorOf > 0 cannot be run directly.
	// The zero value means a plain iteration.
	MirrorOf int
}

// Mirrored returns a placeholder Config to be resolved by
// Scheme.Resolve as the direction-reversed twin of iteration index idx
// (0-based).
func Mirrored(idx int, verify bool) Config {
	return Config{MirrorOf: idx + 1, Verify: verify}
}

// mirrorTarget returns the 0-based mirrored iteration index, or -1.
func (c Config) mirrorTarget() int { return c.MirrorOf - 1 }

// Validate checks the configuration against a memory of n cells and
// width bits.
func (c Config) Validate(n, width int) error {
	if c.MirrorOf > 0 {
		return fmt.Errorf("prt: mirrored config not resolved (run it through a Scheme)")
	}
	if c.Gen.Field == nil {
		return fmt.Errorf("prt: config has no generator polynomial")
	}
	if c.Gen.Field.M() != width {
		return fmt.Errorf("prt: field GF(2^%d) does not match memory width %d",
			c.Gen.Field.M(), width)
	}
	k := c.Gen.K()
	if len(c.Seed) != k {
		return fmt.Errorf("prt: seed length %d != k=%d", len(c.Seed), k)
	}
	for _, v := range c.Seed {
		if !c.Gen.Field.Contains(v) {
			return fmt.Errorf("prt: seed value %#x outside field", uint32(v))
		}
	}
	if !c.Gen.Field.Contains(c.Offset) {
		return fmt.Errorf("prt: offset %#x outside field", uint32(c.Offset))
	}
	if n < k+1 {
		return fmt.Errorf("prt: memory of %d cells too small for k=%d", n, k)
	}
	switch c.Trajectory {
	case Ascending, Descending, Random, RandomReversed:
	default:
		return fmt.Errorf("prt: unknown trajectory %d", int(c.Trajectory))
	}
	return nil
}

// Addresses returns the cell visit order for a memory of n cells.
func (c Config) Addresses(n int) []int {
	out := make([]int, n)
	switch c.Trajectory {
	case Descending:
		for i := range out {
			out[i] = n - 1 - i
		}
	case Random, RandomReversed:
		for i := range out {
			out[i] = i
		}
		r := permRNG{s: uint64(c.PermSeed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
		for i := n - 1; i > 0; i-- {
			j := r.intn(i + 1)
			out[i], out[j] = out[j], out[i]
		}
		if c.Trajectory == RandomReversed {
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				out[i], out[j] = out[j], out[i]
			}
		}
	default: // Ascending
		for i := range out {
			out[i] = i
		}
	}
	return out
}

// String summarises the configuration.
func (c Config) String() string {
	return fmt.Sprintf("π[g=%v seed=%v %v]", c.Gen, c.Seed, c.Trajectory)
}

// permRNG is a xorshift64* generator for trajectory permutations,
// deterministic across platforms.
type permRNG struct{ s uint64 }

func (r *permRNG) next() uint64 {
	if r.s == 0 {
		r.s = 1
	}
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *permRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// PaperBOMConfig returns the bit-oriented example configuration:
// g(x) = 1 + x + x² over GF(2), seed (1,1), ascending — the Fig. 1a
// setting (TDB 1,1,0,1,1,0,…).
func PaperBOMConfig() Config {
	f := gf.NewField(1)
	return Config{
		Gen:  lfsr.MustGenPoly(f, []gf.Elem{1, 1, 1}),
		Seed: []gf.Elem{1, 1},
	}
}

// PaperWOMConfig returns the paper's worked word-oriented example:
// g(x) = 1 + 2x + 2x² over GF(2⁴) with p(z) = 1 + z + z⁴, seed (0,1),
// ascending — the Fig. 1b setting (TDB 0,1,2,6,8,F,…; period 255).
func PaperWOMConfig() Config {
	return Config{
		Gen:  lfsr.PaperGenPoly(),
		Seed: []gf.Elem{0, 1},
	}
}
