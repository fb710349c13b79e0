// Package lfsr implements the virtual linear automaton that
// pseudo-ring testing emulates, one affine automaton over GF(2^m),
//
//	u_t = a₁·u_{t-1} ⊕ a₂·u_{t-2} ⊕ … ⊕ a_k·u_{t-k} ⊕ q ,
//
// its jump-ahead through the companion matrix, and Berlekamp-Massey
// synthesis.  The offset q = 0 gives the plain word-oriented LFSR, and
// a bit-oriented LFSR is the case m = 1.
//
// A π-test iteration walks the automaton's state sequence through the
// memory array, and the expected final state Fin* is obtained by
// jumping the model the same number of steps.  The recurrence
// convention matches the paper's generator polynomial
// g(x) = 1 + a₁x + … + a_k x^k, so the paper's g(x) = 1 + 2x + 2x² over
// GF(2⁴) with q = 0 produces the Fig. 1b sequence 0, 1, 2, 6, 8, F, … .
package lfsr

import (
	"fmt"
	"slices"

	"repro/internal/gf"
)

// GenPoly is the paper's generator polynomial g(x) = a₀ + a₁x + … + a_k x^k
// with coefficients in GF(2^m).  Coeffs[i] is a_i; a₀ must be nonzero
// (the paper uses a₀ = 1) and a_k must be nonzero (it fixes the stage
// count k).  The associated recurrence is
//
//	u_t = a₁·u_{t-1} ⊕ a₂·u_{t-2} ⊕ … ⊕ a_k·u_{t-k}.
type GenPoly struct {
	Field  *gf.Field
	Coeffs []gf.Elem
}

// NewGenPoly validates and returns a generator polynomial.
func NewGenPoly(f *gf.Field, coeffs []gf.Elem) (GenPoly, error) {
	if f == nil {
		return GenPoly{}, fmt.Errorf("lfsr: nil field")
	}
	if len(coeffs) < 2 {
		return GenPoly{}, fmt.Errorf("lfsr: generator polynomial needs degree >= 1 (got %d coefficients)", len(coeffs))
	}
	for _, c := range coeffs {
		if !f.Contains(c) {
			return GenPoly{}, fmt.Errorf("lfsr: coefficient %#x outside %v", uint32(c), f)
		}
	}
	if coeffs[0] == 0 {
		return GenPoly{}, fmt.Errorf("lfsr: a0 must be nonzero (non-singular automaton)")
	}
	if coeffs[len(coeffs)-1] == 0 {
		return GenPoly{}, fmt.Errorf("lfsr: leading coefficient must be nonzero")
	}
	cp := make([]gf.Elem, len(coeffs))
	copy(cp, coeffs)
	return GenPoly{Field: f, Coeffs: cp}, nil
}

// MustGenPoly is NewGenPoly but panics on error.
func MustGenPoly(f *gf.Field, coeffs []gf.Elem) GenPoly {
	g, err := NewGenPoly(f, coeffs)
	if err != nil {
		panic(err)
	}
	return g
}

// PaperGenPoly returns the paper's worked example: g(x) = 1 + 2x + 2x²
// over GF(2⁴) with p(z) = 1 + z + z⁴.
func PaperGenPoly() GenPoly {
	return MustGenPoly(gf.NewField(4), []gf.Elem{1, 2, 2})
}

// K returns the register length (degree of g).
func (g GenPoly) K() int { return len(g.Coeffs) - 1 }

// Taps returns the recurrence weights (a₁ … a_k).
func (g GenPoly) Taps() []gf.Elem { return g.Coeffs[1:] }

// TapRows returns the GF(2) matrices of multiplication by the taps
// a₁ … a_k as row bitmasks: bit s of rows[j-1][r] is set when bit r of
// a_j·2^s is 1 (the gf.BitMatrix row convention), the form
// ram.AnnotateLinear takes to describe a recurrence write.
func (g GenPoly) TapRows() [][]uint32 {
	rows := make([][]uint32, g.K())
	for j, a := range g.Taps() {
		rows[j] = g.Field.ConstMulMatrix(a).Rows
	}
	return rows
}

// String renders g in the paper's notation, e.g. "1 + 2x + 2x^2".
func (g GenPoly) String() string {
	s := ""
	for i, c := range g.Coeffs {
		if c == 0 {
			continue
		}
		if s != "" {
			s += " + "
		}
		switch {
		case i == 0:
			s += fmt.Sprintf("%X", uint32(c))
		case i == 1 && c == 1:
			s += "x"
		case i == 1:
			s += fmt.Sprintf("%Xx", uint32(c))
		case c == 1:
			s += fmt.Sprintf("x^%d", i)
		default:
			s += fmt.Sprintf("%Xx^%d", uint32(c), i)
		}
	}
	if s == "" {
		return "0"
	}
	return s
}

// Affine is the virtual automaton over GF(2^m): a word LFSR whose
// recurrence adds a constant offset,
//
//	u_t = a₁·u_{t-1} ⊕ … ⊕ a_k·u_{t-k} ⊕ q .
//
// q = 0 is the plain LFSR.  With q = 2^m - 1 (all ones) and the
// complemented seed, the generated sequence is the bitwise complement
// of the plain LFSR sequence — the mechanism pseudo-ring testing uses
// to build a complementary test data background (the paper's "specific
// TDB") out of one extra XOR layer of hardware.  The state window holds
// the k most recent sequence values (state[0] oldest … state[k-1]
// newest).
type Affine struct {
	gen    GenPoly
	offset gf.Elem
	state  []gf.Elem
}

// NewAffine returns an affine automaton with the given generator,
// offset q and initial window (length k; init[0] is the oldest value,
// i.e. the first cell written).
func NewAffine(g GenPoly, offset gf.Elem, init []gf.Elem) (*Affine, error) {
	if !g.Field.Contains(offset) {
		return nil, fmt.Errorf("lfsr: offset %#x outside field", uint32(offset))
	}
	if len(init) != g.K() {
		return nil, fmt.Errorf("lfsr: seed length %d != k=%d", len(init), g.K())
	}
	for _, v := range init {
		if !g.Field.Contains(v) {
			return nil, fmt.Errorf("lfsr: seed value %#x outside %v", uint32(v), g.Field)
		}
	}
	return &Affine{gen: g, offset: offset, state: slices.Clone(init)}, nil
}

// MustAffine is NewAffine but panics on error.
func MustAffine(g GenPoly, offset gf.Elem, init []gf.Elem) *Affine {
	a, err := NewAffine(g, offset, init)
	if err != nil {
		panic(err)
	}
	return a
}

// K returns the register length.
func (a *Affine) K() int { return a.gen.K() }

// Offset returns the additive constant q.
func (a *Affine) Offset() gf.Elem { return a.offset }

// State returns a copy of the state window (oldest first).
func (a *Affine) State() []gf.Elem { return slices.Clone(a.state) }

// Step advances one clock and returns the value shifted in.
func (a *Affine) Step() gf.Elem {
	f := a.gen.Field
	k := a.K()
	acc := a.offset
	for j := 1; j <= k; j++ {
		acc = f.Add(acc, f.Mul(a.gen.Coeffs[j], a.state[k-j]))
	}
	copy(a.state, a.state[1:])
	a.state[len(a.state)-1] = acc
	return acc
}

// Sequence returns u_0 … u_{n-1} including the seed window, without
// mutating the automaton.
func (a *Affine) Sequence(n int) []gf.Elem {
	cp := MustAffine(a.gen, a.offset, a.State())
	out := make([]gf.Elem, 0, n)
	out = append(out, cp.state...)
	if n <= len(out) {
		return out[:n]
	}
	for len(out) < n {
		out = append(out, cp.Step())
	}
	return out
}

// Period returns the period of the orbit containing the current state,
// by Brent's cycle detection (bounded memory; affine maps with
// invertible linear part are bijective, so orbits are pure cycles, and
// the all-zero state of the plain LFSR has period 1).  maxSteps caps
// the search; 0 uses the bound (2^m)^k.  It returns 0 if no cycle is
// found within the cap.
func (a *Affine) Period(maxSteps uint64) uint64 {
	if maxSteps == 0 {
		bits := a.gen.Field.M() * a.K()
		if bits >= 64 {
			maxSteps = ^uint64(0)
		} else {
			maxSteps = uint64(1) << uint(bits)
		}
	}
	tortoise := MustAffine(a.gen, a.offset, a.State())
	hare := MustAffine(a.gen, a.offset, a.State())
	var power, lam uint64 = 1, 0
	hare.Step()
	lam = 1
	for !slices.Equal(tortoise.state, hare.state) {
		if power == lam {
			tortoise.state = hare.State()
			power *= 2
			lam = 0
		}
		hare.Step()
		lam++
		if lam > maxSteps {
			return 0
		}
	}
	return lam
}

// AffineJumpAhead returns the automaton state after n steps from state
// — the a-priori estimation of Fin* the paper relies on — in
// O((k+1)³ log n) field operations using the homogeneous trick: embed
// the affine map S ↦ C·S + D into the (k+1)×(k+1) linear map
// [[C D],[0 1]].
func AffineJumpAhead(g GenPoly, offset gf.Elem, state []gf.Elem, n uint64) ([]gf.Elem, error) {
	if len(state) != g.K() {
		return nil, fmt.Errorf("lfsr: state length %d != k=%d", len(state), g.K())
	}
	k := g.K()
	f := g.Field
	c := Companion(g)
	h := NewMatrix(f, k+1)
	for i := 0; i < k; i++ {
		copy(h.A[i][:k], c.A[i])
	}
	h.A[k-1][k] = offset // the new element's constant term
	h.A[k][k] = 1
	hn := h.Pow(n)
	v := make([]gf.Elem, k+1)
	copy(v, state)
	v[k] = 1
	out := hn.Apply(v)
	return out[:k], nil
}
