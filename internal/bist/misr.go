package bist

import (
	"fmt"

	"repro/internal/gf"
)

// MISR is a word-wide multiple-input signature register over GF(2^m):
// each Feed folds a data word into the running signature via
//
//	S ← α·S ⊕ d
//
// with α a fixed nonzero multiplier (the field generator by default).
// It is the hardware-cheap alternative to the per-read comparator of
// the verify pass: all n read-back words compress into one m-bit
// signature, at the cost of an aliasing probability of ≈2^-m for a
// random error burst (quantified by markov.PRTModel).  Because α ≠ 0
// the map is injective per step, so any SINGLE wrong word always
// changes the final signature — only multi-word error patterns can
// alias.
type MISR struct {
	f     *gf.Field
	alpha gf.Elem
	state gf.Elem
	fed   uint64
}

// NewMISR returns a signature register over f with multiplier alpha
// (0 selects the field generator).
func NewMISR(f *gf.Field, alpha gf.Elem) (*MISR, error) {
	if f == nil {
		return nil, fmt.Errorf("bist: nil field")
	}
	if alpha == 0 {
		alpha = f.Generator()
	}
	if !f.Contains(alpha) || alpha == 0 {
		return nil, fmt.Errorf("bist: bad MISR multiplier %#x", uint32(alpha))
	}
	return &MISR{f: f, alpha: alpha}, nil
}

// Feed folds one data word.
func (m *MISR) Feed(d gf.Elem) {
	m.state = m.f.Add(m.f.Mul(m.alpha, m.state), d)
	m.fed++
}

// FeedAll folds a slice of words.
func (m *MISR) FeedAll(ds []gf.Elem) {
	for _, d := range ds {
		m.Feed(d)
	}
}

// Signature returns the current signature.
func (m *MISR) Signature() gf.Elem { return m.state }

// FoldMatrices returns the GF(2) row-mask matrices of one fold step
// S ← α·S ⊕ d in the form the replay observer annotation
// (ram.TraceAnnotator.AnnotateFold) consumes: step is the α-multiply
// on the m accumulator bits, tap the identity injection of the m-bit
// data word.  Both are freshly allocated and safe to retain.
func (m *MISR) FoldMatrices() (step, tap []uint32) {
	step = append([]uint32(nil), m.f.ConstMulMatrix(m.alpha).Rows...)
	tap = append([]uint32(nil), gf.IdentityMatrix(m.f.M()).Rows...)
	return step, tap
}

// Fed returns the number of words folded.
func (m *MISR) Fed() uint64 { return m.fed }

// Predict computes, without a register, the signature of the given
// word stream: Σ α^(n-1-i)·d_i.
func Predict(f *gf.Field, alpha gf.Elem, ds []gf.Elem) (gf.Elem, error) {
	r, err := NewMISR(f, alpha)
	if err != nil {
		return 0, err
	}
	r.FeedAll(ds)
	return r.Signature(), nil
}
