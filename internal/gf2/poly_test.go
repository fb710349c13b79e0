package gf2

import (
	"testing"
	"testing/quick"
)

func TestDeg(t *testing.T) {
	cases := []struct {
		p    Poly
		want int
	}{
		{0, -1},
		{1, 0},
		{2, 1},
		{3, 1},
		{0x13, 4},
		{1 << 63, 63},
	}
	for _, c := range cases {
		if got := c.p.Deg(); got != c.want {
			t.Errorf("Deg(%#x) = %d, want %d", uint64(c.p), got, c.want)
		}
	}
}

func TestCoeffSetCoeff(t *testing.T) {
	p := Poly(0)
	p = p.SetCoeff(0, 1).SetCoeff(4, 1).SetCoeff(1, 1)
	if p != 0x13 {
		t.Fatalf("SetCoeff build = %#x, want 0x13", uint64(p))
	}
	if p.Coeff(4) != 1 || p.Coeff(3) != 0 || p.Coeff(0) != 1 {
		t.Errorf("Coeff readback wrong for %v", p)
	}
	if p.SetCoeff(4, 0) != 0x03 {
		t.Errorf("SetCoeff clear failed")
	}
	if p.Coeff(-1) != 0 || p.Coeff(64) != 0 {
		t.Errorf("out-of-range Coeff should be 0")
	}
	if p.SetCoeff(77, 1) != p {
		t.Errorf("out-of-range SetCoeff should be identity")
	}
}

func TestMulKnown(t *testing.T) {
	// (x+1)(x+1) = x^2+1 over GF(2)
	if got := Poly(3).Mul(3); got != 5 {
		t.Errorf("(x+1)^2 = %v, want x^2+1", got)
	}
	// (x^2+x+1)(x+1) = x^3+1
	if got := Poly(7).Mul(3); got != 9 {
		t.Errorf("(x^2+x+1)(x+1) = %v, want x^3+1", got)
	}
	if got := Poly(0x13).Mul(1); got != 0x13 {
		t.Errorf("p*1 != p")
	}
	if got := Poly(0x13).Mul(0); got != 0 {
		t.Errorf("p*0 != 0")
	}
}

func TestDivMod(t *testing.T) {
	// x^4+x+1 divided by x^2+1: x^4+x+1 = (x^2+1)(x^2+1) + x
	quo, rem := Poly(0x13).DivMod(5)
	if quo != 5 || rem != 2 {
		t.Errorf("DivMod = (%v, %v), want (x^2+1, x)", quo, rem)
	}
	// Reconstruction property on a few fixed cases.
	for _, c := range []struct{ p, q Poly }{
		{0xFF, 0x13}, {0x1234, 0xB}, {1, 2}, {0, 7},
	} {
		d, r := c.p.DivMod(c.q)
		if d.Mul(c.q).Add(r) != c.p {
			t.Errorf("DivMod(%v,%v) fails reconstruction", c.p, c.q)
		}
		if r.Deg() >= c.q.Deg() {
			t.Errorf("remainder degree too high: %v mod %v = %v", c.p, c.q, r)
		}
	}
}

func TestDivModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DivMod by zero did not panic")
		}
	}()
	Poly(5).DivMod(0)
}

func TestGCD(t *testing.T) {
	// gcd((x+1)(x^2+x+1), (x+1)(x^3+x+1)) = x+1
	a := Poly(3).Mul(7)
	b := Poly(3).Mul(0xB)
	if g := GCD(a, b); g != 3 {
		t.Errorf("GCD = %v, want x+1", g)
	}
	if GCD(0, 0) != 0 {
		t.Errorf("GCD(0,0) != 0")
	}
	if GCD(0, 7) != 7 || GCD(7, 0) != 7 {
		t.Errorf("GCD with zero operand wrong")
	}
}

func TestMulModMatchesMul(t *testing.T) {
	f := Poly(0x13)
	for a := Poly(0); a < 64; a++ {
		for b := Poly(0); b < 64; b++ {
			want := a.Mul(b).Mod(f)
			if got := MulMod(a, b, f); got != want {
				t.Fatalf("MulMod(%v,%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestPowMod(t *testing.T) {
	f := Poly(0x13) // primitive, order of x is 15
	if PowMod(X, 15, f) != One {
		t.Errorf("x^15 mod p != 1 for primitive degree-4 p")
	}
	for e := uint64(1); e < 15; e++ {
		if PowMod(X, e, f) == One {
			t.Errorf("x^%d ≡ 1 prematurely", e)
		}
	}
	if PowMod(X, 0, f) != One {
		t.Errorf("x^0 != 1")
	}
}

func TestReverse(t *testing.T) {
	// reverse of x^4+x+1 is x^4+x^3+1
	if got := Poly(0x13).Reverse(); got != 0x19 {
		t.Errorf("Reverse = %#x, want 0x19", uint64(got))
	}
	if Poly(0).Reverse() != 0 || Poly(1).Reverse() != 1 {
		t.Errorf("Reverse of 0/1 must be identity")
	}
}

func TestReversePreservesIrreducibility(t *testing.T) {
	for _, p := range Irreducibles(6) {
		if !IsIrreducible(p.Reverse()) {
			t.Errorf("reverse of irreducible %v not irreducible", p)
		}
	}
}

// --- property-based tests ---

// small clips a random polynomial to degree < 31 so products fit.
func small(p Poly) Poly { return p & 0x7FFFFFFF }

func TestQuickMulCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := small(Poly(a)), small(Poly(b))
		return x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := small(Poly(a)), small(Poly(b)), small(Poly(c))
		return x.Mul(y.Add(z)) == x.Mul(y).Add(x.Mul(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDivModReconstruct(t *testing.T) {
	f := func(a, b uint64) bool {
		p := Poly(a)
		q := small(Poly(b))
		if q == 0 {
			q = 1
		}
		d, r := p.DivMod(q)
		return d.Mul(q).Add(r) == p && r.Deg() < q.Deg()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGCDDivides(t *testing.T) {
	f := func(a, b uint64) bool {
		p, q := Poly(a), Poly(b)
		g := GCD(p, q)
		if g == 0 {
			return p == 0 && q == 0
		}
		return p.Mod(g) == 0 && q.Mod(g) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulModAssociative(t *testing.T) {
	fld := Poly(0x11D)
	f := func(a, b, c uint16) bool {
		x, y, z := Poly(a), Poly(b), Poly(c)
		return MulMod(MulMod(x, y, fld), z, fld) == MulMod(x, MulMod(y, z, fld), fld)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddSelfInverse(t *testing.T) {
	f := func(a uint64) bool { return Poly(a).Add(Poly(a)) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- helpers: the tests' reference product and inputs ---

// SetCoeff returns a copy of p with the coefficient of x^i set to c&1.
// Out-of-range indices return p unchanged.
func (p Poly) SetCoeff(i int, c uint) Poly {
	if i < 0 || i > MaxDegree {
		return p
	}
	if c&1 == 1 {
		return p | 1<<uint(i)
	}
	return p &^ (1 << uint(i))
}

// Mul returns the product p*q.  The degrees must satisfy
// p.Deg()+q.Deg() <= MaxDegree or high coefficients are lost; use MulMod
// for modular products of large operands.
func (p Poly) Mul(q Poly) Poly {
	var r Poly
	a, b := uint64(p), uint64(q)
	for b != 0 {
		if b&1 == 1 {
			r ^= Poly(a)
		}
		a <<= 1
		b >>= 1
	}
	return r
}

// Reverse returns the reciprocal polynomial x^deg(p) * p(1/x).
// The reciprocal of an irreducible polynomial is irreducible, and the
// reciprocal of a primitive polynomial is primitive.
func (p Poly) Reverse() Poly {
	d := p.Deg()
	if d <= 0 {
		return p
	}
	var r Poly
	for i := 0; i <= d; i++ {
		if p.Coeff(i) == 1 {
			r = r.SetCoeff(d-i, 1)
		}
	}
	return r
}
