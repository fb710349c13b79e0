package lfsr

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gf"
)

// TestPaperFig1bSequence checks the exact state evolution of the
// paper's worked example: g(x)=1+2x+2x^2 over GF(2^4), p(z)=1+z+z^4,
// seeded (0,1).  Figure 1b of the paper shows the cells
// 0, 1, 2, 6, ...F...; the full recurrence gives 0 1 2 6 8 F E ...
func TestPaperFig1bSequence(t *testing.T) {
	w := MustAffine(PaperGenPoly(), 0, []gf.Elem{0, 1})
	got := w.Sequence(17)
	want := []gf.Elem{0, 1, 2, 6, 8, 0xF, 0xE, 2, 0xB, 1, 7, 0xC, 5, 1, 8, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %X, want %X (full: %v)", i, uint32(got[i]), uint32(want[i]), got)
		}
	}
}

// TestPaperPeriod255 verifies the pseudo-ring property: the paper's
// automaton has period 255 = 16^2 - 1 (maximal), so a memory whose size
// is a multiple of 255 (plus the k seed cells) returns to Init.
func TestPaperPeriod255(t *testing.T) {
	w := MustAffine(PaperGenPoly(), 0, []gf.Elem{0, 1})
	if got := w.Period(0); got != 255 {
		t.Fatalf("period = %d, want 255", got)
	}
	// All nonzero states lie on the same maximal cycle.
	w2 := MustAffine(PaperGenPoly(), 0, []gf.Elem{0xF, 0xF})
	if got := w2.Period(0); got != 255 {
		t.Errorf("period from (F,F) = %d, want 255", got)
	}
}

func TestWordZeroStateFixed(t *testing.T) {
	w := MustAffine(PaperGenPoly(), 0, []gf.Elem{0, 0})
	if w.Step() != 0 {
		t.Error("zero state must step to zero")
	}
	if w.Period(0) != 1 {
		t.Error("zero state period != 1")
	}
}

func TestWordRunMatchesRepeatedStep(t *testing.T) {
	a := MustAffine(PaperGenPoly(), 0, []gf.Elem{3, 7})
	b := MustAffine(PaperGenPoly(), 0, []gf.Elem{3, 7})
	a.Run(37)
	for i := 0; i < 37; i++ {
		b.Step()
	}
	if !slices.Equal(a.State(), b.State()) {
		t.Error("Run != repeated Step")
	}
}

func TestWordSequenceDoesNotMutate(t *testing.T) {
	w := MustAffine(PaperGenPoly(), 0, []gf.Elem{0, 1})
	before := w.State()
	w.Sequence(50)
	if !slices.Equal(w.State(), before) {
		t.Error("Sequence mutated the register")
	}
	// Short sequences return the seed prefix.
	if s := w.Sequence(1); len(s) != 1 || s[0] != 0 {
		t.Errorf("Sequence(1) = %v", s)
	}
}

func TestWordStateIsCopy(t *testing.T) {
	w := MustAffine(PaperGenPoly(), 0, []gf.Elem{0, 1})
	s := w.State()
	s[0] = 0xF
	if w.State()[0] != 0 {
		t.Error("State() exposed internal slice")
	}
}

func TestNewGenPolyValidation(t *testing.T) {
	f := gf.NewField(4)
	if _, err := NewGenPoly(nil, []gf.Elem{1, 1}); err == nil {
		t.Error("nil field accepted")
	}
	if _, err := NewGenPoly(f, []gf.Elem{1}); err == nil {
		t.Error("degree-0 polynomial accepted")
	}
	if _, err := NewGenPoly(f, []gf.Elem{0, 1, 1}); err == nil {
		t.Error("zero a0 accepted")
	}
	if _, err := NewGenPoly(f, []gf.Elem{1, 1, 0}); err == nil {
		t.Error("zero leading coefficient accepted")
	}
	if _, err := NewGenPoly(f, []gf.Elem{1, 0x10}); err == nil {
		t.Error("out-of-field coefficient accepted")
	}
	g, err := NewGenPoly(f, []gf.Elem{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 2 || len(g.Taps()) != 2 {
		t.Errorf("K/Taps wrong")
	}
}

func TestGenPolyCoeffsCopied(t *testing.T) {
	f := gf.NewField(4)
	coeffs := []gf.Elem{1, 2, 2}
	g := MustGenPoly(f, coeffs)
	coeffs[1] = 7
	if g.Coeffs[1] != 2 {
		t.Error("GenPoly aliased caller slice")
	}
}

func TestGenPolyString(t *testing.T) {
	if got := PaperGenPoly().String(); got != "1 + 2x + 2x^2" {
		t.Errorf("String = %q, want the paper's notation", got)
	}
	f := gf.NewField(4)
	if got := MustGenPoly(f, []gf.Elem{1, 1}).String(); got != "1 + x" {
		t.Errorf("String = %q", got)
	}
	if got := MustGenPoly(f, []gf.Elem{3, 0, 1}).String(); got != "3 + x^2" {
		t.Errorf("String = %q", got)
	}
}

func TestBitOrientedAsDegenerateWord(t *testing.T) {
	// The plain automaton over GF(2) with g(x)=1+x+x^2 is a bit LFSR
	// with characteristic x^2+x+1 (period 3).
	f := gf.NewField(1)
	g := MustGenPoly(f, []gf.Elem{1, 1, 1})
	w := MustAffine(g, 0, []gf.Elem{1, 1})
	if got := w.Period(0); got != 3 {
		t.Errorf("period = %d, want 3", got)
	}
	seq := w.Sequence(9)
	want := []gf.Elem{1, 1, 0, 1, 1, 0, 1, 1, 0}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", seq, want)
		}
	}
}

func TestPeriodCap(t *testing.T) {
	w := MustAffine(PaperGenPoly(), 0, []gf.Elem{0, 1})
	if got := w.Period(10); got != 0 {
		t.Errorf("capped period search should fail, got %d", got)
	}
}

func TestQuickPeriodDividesGroupOrder(t *testing.T) {
	g := PaperGenPoly()
	prop := func(a, b uint8) bool {
		s := []gf.Elem{gf.Elem(a & 0xF), gf.Elem(b & 0xF)}
		w := MustAffine(g, 0, s)
		p := w.Period(0)
		if s[0] == 0 && s[1] == 0 {
			return p == 1
		}
		return p != 0 && 255%p == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickSuperposition(t *testing.T) {
	// LFSRs are linear: the orbit of s1+s2 is the sum of orbits.
	g := PaperGenPoly()
	f := g.Field
	prop := func(a1, b1, a2, b2 uint8) bool {
		s1 := []gf.Elem{gf.Elem(a1 & 0xF), gf.Elem(b1 & 0xF)}
		s2 := []gf.Elem{gf.Elem(a2 & 0xF), gf.Elem(b2 & 0xF)}
		sum := []gf.Elem{f.Add(s1[0], s2[0]), f.Add(s1[1], s2[1])}
		w1, w2, ws := MustAffine(g, 0, s1), MustAffine(g, 0, s2), MustAffine(g, 0, sum)
		w1.Run(13)
		w2.Run(13)
		ws.Run(13)
		got := ws.State()
		for i := range got {
			if got[i] != f.Add(w1.State()[i], w2.State()[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Run advances n clocks and returns the final state window.
func (a *Affine) Run(n int) []gf.Elem {
	for i := 0; i < n; i++ {
		a.Step()
	}
	return a.State()
}

func TestAffineComplementSequence(t *testing.T) {
	// Over GF(2^m), the affine automaton with offset mask and
	// complemented seed generates the bitwise complement sequence.
	g := PaperGenPoly()
	mask := g.Field.Mask()
	plain := MustAffine(g, 0, []gf.Elem{1, 0})
	comp := MustAffine(g, mask, []gf.Elem{1 ^ mask, 0 ^ mask})
	ps := plain.Sequence(100)
	cs := comp.Sequence(100)
	for i := range ps {
		if cs[i] != ps[i]^mask {
			t.Fatalf("complement property broken at %d: %x vs %x", i, cs[i], ps[i])
		}
	}
}

func TestAffineComplementGF2(t *testing.T) {
	f := gf.NewField(1)
	g := MustGenPoly(f, []gf.Elem{1, 1, 1})
	plain := MustAffine(g, 0, []gf.Elem{1, 0})
	comp := MustAffine(g, 1, []gf.Elem{0, 1})
	ps := plain.Sequence(30)
	cs := comp.Sequence(30)
	for i := range ps {
		if cs[i] != ps[i]^1 {
			t.Fatalf("GF(2) complement broken at %d", i)
		}
	}
}

func TestAffineJumpAheadMatchesStepping(t *testing.T) {
	g := PaperGenPoly()
	for _, q := range []gf.Elem{0, 1, 0xF, 7} {
		for _, n := range []uint64{0, 1, 5, 100, 255, 1000} {
			a := MustAffine(g, q, []gf.Elem{3, 9})
			for i := uint64(0); i < n; i++ {
				a.Step()
			}
			jumped, err := AffineJumpAhead(g, q, []gf.Elem{3, 9}, n)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.State(), jumped) {
				t.Errorf("q=%x n=%d: jump %v != step %v", q, n, jumped, a.State())
			}
		}
	}
}

func TestAffinePeriod(t *testing.T) {
	g := PaperGenPoly()
	// q=0 from a nonzero state: the plain 255 cycle.
	if got := MustAffine(g, 0, []gf.Elem{0, 1}).Period(0); got != 255 {
		t.Errorf("q=0 period = %d", got)
	}
	// Complement automaton also has period 255 (conjugate orbit).
	mask := g.Field.Mask()
	if got := MustAffine(g, mask, []gf.Elem{0 ^ mask, 1 ^ mask}).Period(0); got != 255 {
		t.Errorf("complement period = %d", got)
	}
}

func TestAffineValidation(t *testing.T) {
	g := PaperGenPoly()
	if _, err := NewAffine(g, 0x10, []gf.Elem{0, 1}); err == nil {
		t.Error("out-of-field offset accepted")
	}
	if _, err := NewAffine(g, 0, []gf.Elem{1}); err == nil {
		t.Error("short seed accepted")
	}
	if _, err := NewAffine(g, 0, []gf.Elem{0, 0x10}); err == nil {
		t.Error("out-of-field seed value accepted")
	}
	if _, err := AffineJumpAhead(g, 0, []gf.Elem{1}, 5); err == nil {
		t.Error("short state accepted by jump-ahead")
	}
}

func TestAffineAccessors(t *testing.T) {
	g := PaperGenPoly()
	a := MustAffine(g, 7, []gf.Elem{2, 3})
	if a.K() != 2 || a.Offset() != 7 {
		t.Error("accessors wrong")
	}
	s := a.State()
	s[0] = 9
	if a.State()[0] != 2 {
		t.Error("State aliased internal slice")
	}
	if got := a.Sequence(2); got[0] != 2 || got[1] != 3 {
		t.Errorf("Sequence prefix = %v", got)
	}
}

func TestAffinePeriodCap(t *testing.T) {
	g := PaperGenPoly()
	if got := MustAffine(g, 1, []gf.Elem{0, 1}).Period(3); got != 0 {
		t.Errorf("capped period should return 0, got %d", got)
	}
}

// TestTapRowsMultiplyByTaps checks the trace-annotation rows against
// the field: applying row set j-1 to any word v gives a_j·v.
func TestTapRowsMultiplyByTaps(t *testing.T) {
	g := PaperGenPoly()
	rows := g.TapRows()
	if len(rows) != g.K() {
		t.Fatalf("%d row sets, want k=%d", len(rows), g.K())
	}
	for j, a := range g.Taps() {
		for v := gf.Elem(0); v < 16; v++ {
			var got gf.Elem
			for r, m := range rows[j] {
				if bits.OnesCount32(m&uint32(v))%2 == 1 {
					got |= 1 << uint(r)
				}
			}
			if want := g.Field.Mul(a, v); got != want {
				t.Fatalf("a_%d = %X: rows map %X to %X, want %X", j+1, uint32(a), uint32(v), uint32(got), uint32(want))
			}
		}
	}
}
