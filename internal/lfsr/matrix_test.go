package lfsr

import (
	"slices"
	"testing"

	"repro/internal/gf"
)

func TestCompanionMatchesStep(t *testing.T) {
	g := PaperGenPoly()
	c := Companion(g)
	w := MustAffine(g, 0, []gf.Elem{0, 1})
	v := []gf.Elem{0, 1}
	for i := 0; i < 300; i++ {
		w.Step()
		v = c.Apply(v)
		if !slices.Equal(w.State(), v) {
			t.Fatalf("companion diverged at step %d: %v vs %v", i, w.State(), v)
		}
	}
}

func TestCompanionOrderIsPeriod(t *testing.T) {
	c := Companion(PaperGenPoly())
	if got := c.Order(255); got != 255 {
		t.Errorf("companion order = %d, want 255", got)
	}
}

func TestCompanionDetNonzero(t *testing.T) {
	c := Companion(PaperGenPoly())
	// det of the 2x2 companion equals the weight on the oldest slot (a_k
	// up to sign); it must be nonzero for an invertible automaton.
	if c.Det() == 0 {
		t.Error("companion matrix singular")
	}
}

func TestJumpAhead(t *testing.T) {
	g := PaperGenPoly()
	for _, n := range []uint64{0, 1, 2, 17, 254, 255, 1000} {
		w := MustAffine(g, 0, []gf.Elem{0, 1})
		w.Run(int(n))
		jumped, err := AffineJumpAhead(g, 0, []gf.Elem{0, 1}, n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(w.State(), jumped) {
			t.Errorf("AffineJumpAhead(q=0, %d) = %v, want %v", n, jumped, w.State())
		}
	}
	if _, err := AffineJumpAhead(g, 0, []gf.Elem{1}, 3); err == nil {
		t.Error("short state accepted")
	}
}

func TestJumpAheadFullPeriodIsIdentity(t *testing.T) {
	g := PaperGenPoly()
	c := Companion(g).Pow(255)
	if !c.IsIdentity() {
		t.Error("C^255 != I for the paper automaton")
	}
	if Companion(g).Pow(0).IsIdentity() != true {
		t.Error("C^0 must be identity")
	}
}

func TestMatrixAlgebra(t *testing.T) {
	f := gf.NewField(4)
	id := Identity(f, 3)
	if !id.IsIdentity() || id.Det() != 1 {
		t.Error("identity properties wrong")
	}
	c := Companion(MustGenPoly(f, []gf.Elem{1, 2, 0, 1})) // k=3
	if c.K != 3 {
		t.Fatalf("companion size wrong")
	}
	if !c.Mul(id).Equal(c) || !id.Mul(c).Equal(c) {
		t.Error("identity not neutral")
	}
	// Associativity spot check.
	c2 := c.Mul(c)
	if !c2.Mul(c).Equal(c.Mul(c2)) {
		t.Error("matrix multiplication not associative")
	}
	// Pow consistency.
	if !c.Pow(3).Equal(c.Mul(c).Mul(c)) {
		t.Error("Pow(3) != c*c*c")
	}
}

func TestSingularDet(t *testing.T) {
	f := gf.NewField(4)
	z := NewMatrix(f, 2)
	if z.Det() != 0 {
		t.Error("zero matrix det != 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Order of singular matrix did not panic")
		}
	}()
	z.Order(255)
}

func TestOrderWrongBound(t *testing.T) {
	c := Companion(PaperGenPoly())
	// 7 is not a multiple of the order 255: must return 0.
	if got := c.Order(7); got != 0 {
		t.Errorf("Order with wrong bound = %d, want 0", got)
	}
}
