// Package lfsr implements the word-oriented linear feedback shift
// register over GF(2^m) that pseudo-ring testing emulates, its affine
// variant, jump-ahead through the companion matrix, and
// Berlekamp-Massey synthesis.  A bit-oriented LFSR is the case m = 1.
//
// The word-oriented LFSR is the "virtual linear automaton" of the
// paper: a π-test iteration walks its state sequence through the memory
// array, and the expected final state Fin* is obtained by stepping the
// LFSR model the same number of times.  The recurrence convention
// matches the paper's generator polynomial g(x) = 1 + a₁x + … + a_k x^k:
//
//	u_t = a₁·u_{t-1} ⊕ a₂·u_{t-2} ⊕ … ⊕ a_k·u_{t-k}
//
// so the paper's g(x) = 1 + 2x + 2x² over GF(2⁴) produces the Fig. 1b
// sequence 0, 1, 2, 6, 8, F, … .
package lfsr

import (
	"fmt"

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

// Word is a word-oriented LFSR over GF(2^m): the virtual automaton of
// the pseudo-ring test.  Its state window holds the k most recent
// sequence values (state[0] oldest … state[k-1] newest).
type Word struct {
	gen   GenPoly
	state []gf.Elem
}

// NewWord returns a word LFSR for g seeded with init (length k;
// state[0] is the oldest value, i.e. the first cell written).
func NewWord(g GenPoly, init []gf.Elem) (*Word, error) {
	if len(init) != g.K() {
		return nil, fmt.Errorf("lfsr: seed length %d != k=%d", len(init), g.K())
	}
	for _, v := range init {
		if !g.Field.Contains(v) {
			return nil, fmt.Errorf("lfsr: seed value %#x outside %v", uint32(v), g.Field)
		}
	}
	w := &Word{gen: g, state: make([]gf.Elem, g.K())}
	copy(w.state, init)
	return w, nil
}

// MustWord is NewWord but panics on error.
func MustWord(g GenPoly, init []gf.Elem) *Word {
	w, err := NewWord(g, init)
	if err != nil {
		panic(err)
	}
	return w
}

// K returns the register length.
func (w *Word) K() int { return w.gen.K() }

// State returns a copy of the state window (oldest first).
func (w *Word) State() []gf.Elem {
	out := make([]gf.Elem, len(w.state))
	copy(out, w.state)
	return out
}

// Seed replaces the state window (oldest first).
func (w *Word) Seed(init []gf.Elem) error {
	if len(init) != w.K() {
		return fmt.Errorf("lfsr: seed length %d != k=%d", len(init), w.K())
	}
	copy(w.state, init)
	return nil
}

// Next computes the next sequence value u_t from the current window
// without advancing.
func (w *Word) Next() gf.Elem {
	f := w.gen.Field
	k := w.K()
	var acc gf.Elem
	// u_t = Σ_{j=1..k} a_j · u_{t-j}; u_{t-j} is state[k-j].
	for j := 1; j <= k; j++ {
		acc = f.Add(acc, f.Mul(w.gen.Coeffs[j], w.state[k-j]))
	}
	return acc
}

// Step advances one clock and returns the value shifted in.
func (w *Word) Step() gf.Elem {
	v := w.Next()
	copy(w.state, w.state[1:])
	w.state[len(w.state)-1] = v
	return v
}

// Sequence returns the first n values of the full sequence including
// the seed window: u_0 … u_{n-1}, without mutating w.
func (w *Word) Sequence(n int) []gf.Elem {
	cp := MustWord(w.gen, w.State())
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

// Period returns the period of the state cycle containing the current
// state, by Brent's cycle-detection (bounded memory).  The all-zero
// state has period 1.  maxSteps caps the search; 0 means the group
// bound (2^m)^k - 1 is used.  It returns 0 if no cycle is found within
// the cap (cannot happen with the group bound on a true LFSR).
func (w *Word) Period(maxSteps uint64) uint64 {
	if maxSteps == 0 {
		maxSteps = groupBound(w.gen.Field.M(), w.K())
	}
	if allZero(w.state) {
		return 1
	}
	// Brent: find the power-of-two window containing the period.
	tortoise := MustWord(w.gen, w.State())
	hare := MustWord(w.gen, w.State())
	var power, lam uint64 = 1, 0
	hare.Step()
	lam = 1
	for !equalStates(tortoise.state, hare.state) {
		if power == lam {
			tortoise.Seed(hare.State())
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

// groupBound returns (2^m)^k - 1 saturating at MaxUint64.
func groupBound(m, k int) uint64 {
	bits := m * k
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

func allZero(s []gf.Elem) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

func equalStates(a, b []gf.Elem) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
