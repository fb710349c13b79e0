package gf

import (
	"testing"
	"testing/quick"

	"repro/internal/gf2"
)

func TestNewFieldPaperExample(t *testing.T) {
	f := NewField(4)
	if f.M() != 4 || f.Size() != 16 || f.Mask() != 0xF {
		t.Fatalf("GF(2^4) basic properties wrong: %v", f)
	}
	if f.Modulus() != mustParse("1+z+z^4") {
		t.Fatalf("GF(2^4) modulus = %v, want the paper's 1+z+z^4", f.Modulus())
	}
	// In GF(16)/0x13: z^4 = z + 1, so 2*8 = 0x3.
	if got := f.Mul(2, 8); got != 3 {
		t.Errorf("z * z^3 = %#x, want 0x3", uint32(got))
	}
	// 2 * 6 = z*(z^2+z) = z^3+z^2 = 0xC (used in Fig. 1b sequence).
	if got := f.Mul(2, 6); got != 0xC {
		t.Errorf("2*6 = %#x, want 0xC", uint32(got))
	}
}

func TestMulTablesGF16Complete(t *testing.T) {
	// Cross-check the table multiply against shift-add for every pair.
	f := NewField(4)
	for a := Elem(0); a < 16; a++ {
		for b := Elem(0); b < 16; b++ {
			if got, want := f.Mul(a, b), f.MulNoTable(a, b); got != want {
				t.Fatalf("Mul(%x,%x) = %x, want %x", a, b, got, want)
			}
		}
	}
}

func TestTableBoundary(t *testing.T) {
	f16, err := NewFieldPoly(gf2.DefaultModulus(16))
	if err != nil {
		t.Fatal(err)
	}
	if f16.log == nil {
		t.Errorf("m=16 should materialise log/exp tables")
	}
	f17, err := NewFieldPoly(gf2.DefaultModulus(17))
	if err != nil {
		t.Fatal(err)
	}
	if f17.log != nil {
		t.Errorf("m=17 should not materialise tables")
	}
	// Arithmetic must agree across the boundary implementation switch.
	if f16.Mul(0xABCD, 0x1234) != f16.MulNoTable(0xABCD, 0x1234) {
		t.Errorf("m=16 table/no-table mismatch")
	}
}

func TestFieldAboveTableLimit(t *testing.T) {
	f, err := NewFieldPoly(gf2.DefaultModulus(18))
	if err != nil {
		t.Fatal(err)
	}
	if f.log != nil {
		t.Fatalf("m=18 should not materialise tables")
	}
	a, b := Elem(0x2ABCD), Elem(0x31337)
	if got, want := f.Mul(a, b), f.MulNoTable(a, b); got != want {
		t.Errorf("large-field Mul mismatch: %x vs %x", got, want)
	}
	if inv := f.Inv(a); f.Mul(a, inv) != 1 {
		t.Errorf("large-field Inv broken")
	}
}

func TestNewFieldPolyRejectsReducible(t *testing.T) {
	if _, err := NewFieldPoly(0x15); err == nil { // (z^2+z+1)^2
		t.Error("reducible modulus accepted")
	}
	if _, err := NewFieldPoly(0); err == nil {
		t.Error("zero modulus accepted")
	}
	if _, err := NewFieldPoly(1); err == nil {
		t.Error("constant modulus accepted")
	}
}

func TestInvDiv(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8, 12} {
		f := NewField(m)
		for a := Elem(1); a <= f.Mask(); a++ {
			inv := f.Inv(a)
			if f.Mul(a, inv) != 1 {
				t.Fatalf("GF(2^%d): %x * inv = %x, want 1", m, a, f.Mul(a, inv))
			}
			if m > 8 && a > 200 {
				break // full scan only for small fields
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	NewField(4).Inv(0)
}

func TestCheckPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with out-of-range operand did not panic")
		}
	}()
	NewField(4).Mul(0x10, 1)
}

func TestPow(t *testing.T) {
	f := NewField(4)
	if f.Pow(0, 0) != 1 {
		t.Errorf("0^0 != 1")
	}
	if f.Pow(5, 1) != 5 {
		t.Errorf("a^1 != a")
	}
	// Lagrange: a^(2^m-1) = 1 for a != 0.
	for a := Elem(1); a < 16; a++ {
		if f.Pow(a, 15) != 1 {
			t.Errorf("a^15 != 1 for a=%x", a)
		}
	}
	// Repeated squaring consistency.
	if f.Pow(3, 5) != f.Mul(f.Mul(f.Mul(f.Mul(3, 3), 3), 3), 3) {
		t.Errorf("Pow(3,5) inconsistent with iterated Mul")
	}
}

func TestGeneratorAndOrder(t *testing.T) {
	f := NewField(4)
	g := f.Generator()
	if f.Order(g) != 15 {
		t.Errorf("generator order = %d, want 15", f.Order(g))
	}
	// With the primitive default modulus, z (=2) generates.
	if g != 2 {
		t.Errorf("generator = %x, want z (2) for primitive modulus", g)
	}
	// Order of 1 is 1; orders divide 15.
	if f.Order(1) != 1 {
		t.Errorf("Order(1) != 1")
	}
	for a := Elem(1); a < 16; a++ {
		if 15%f.Order(a) != 0 {
			t.Errorf("Order(%x)=%d does not divide 15", a, f.Order(a))
		}
	}
}

func TestNonPrimitiveModulusStillWorks(t *testing.T) {
	// AES field: 0x11B is irreducible but not primitive; z has order 51.
	f, err := NewFieldPoly(0x11B)
	if err != nil {
		t.Fatal(err)
	}
	if f.Order(2) != 51 {
		t.Errorf("AES field: order of z = %d, want 51", f.Order(2))
	}
	if f.Order(f.Generator()) != 255 {
		t.Errorf("AES field generator order = %d, want 255", f.Order(f.Generator()))
	}
	// Known AES arithmetic: {53}*{CA}={01}.
	if f.Mul(0x53, 0xCA) != 0x01 {
		t.Errorf("AES 0x53*0xCA = %x, want 1", f.Mul(0x53, 0xCA))
	}
}

func TestGF2Degenerate(t *testing.T) {
	f := NewField(1)
	if f.Size() != 2 {
		t.Fatalf("GF(2) size = %d", f.Size())
	}
	if f.Mul(1, 1) != 1 || f.Mul(1, 0) != 0 || f.Add(1, 1) != 0 {
		t.Errorf("GF(2) arithmetic broken")
	}
	if f.Inv(1) != 1 {
		t.Errorf("GF(2) Inv(1) != 1")
	}
	if f.Order(1) != 1 {
		t.Errorf("GF(2) Order(1) != 1")
	}
}

func TestFormatElem(t *testing.T) {
	f4 := NewField(4)
	if got := f4.FormatElem(0xF); got != "F" {
		t.Errorf("FormatElem(0xF) = %q", got)
	}
	f8 := NewField(8)
	if got := f8.FormatElem(0x0A); got != "0A" {
		t.Errorf("FormatElem(0x0A) = %q", got)
	}
}

func TestStringer(t *testing.T) {
	if got := NewField(4).String(); got != "GF(2^4) mod 1 + z + z^4" {
		t.Errorf("String() = %q", got)
	}
}

// --- property-based tests ---

func TestQuickFieldAxiomsGF256(t *testing.T) {
	f := NewField(8)
	mask := uint32(f.Mask())
	assoc := func(a, b, c uint32) bool {
		x, y, z := Elem(a&mask), Elem(b&mask), Elem(c&mask)
		return f.Mul(f.Mul(x, y), z) == f.Mul(x, f.Mul(y, z))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error("associativity:", err)
	}
	distrib := func(a, b, c uint32) bool {
		x, y, z := Elem(a&mask), Elem(b&mask), Elem(c&mask)
		return f.Mul(x, f.Add(y, z)) == f.Add(f.Mul(x, y), f.Mul(x, z))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Error("distributivity:", err)
	}
	comm := func(a, b uint32) bool {
		x, y := Elem(a&mask), Elem(b&mask)
		return f.Mul(x, y) == f.Mul(y, x)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error("commutativity:", err)
	}
	invProp := func(a uint32) bool {
		x := Elem(a & mask)
		if x == 0 {
			return true
		}
		return f.Mul(x, f.Inv(x)) == 1
	}
	if err := quick.Check(invProp, nil); err != nil {
		t.Error("inverses:", err)
	}
}

func TestQuickFrobeniusAdditive(t *testing.T) {
	f := NewField(8)
	mask := uint32(f.Mask())
	prop := func(a, b uint32) bool {
		x, y := Elem(a&mask), Elem(b&mask)
		// (x+y)^2 = x^2 + y^2 in characteristic 2
		return f.Mul(x^y, x^y) == f.Mul(x, x)^f.Mul(y, y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// mustParse is gf2.Parse for the tests' literal moduli: it panics on
// error.
func mustParse(s string) gf2.Poly {
	p, err := gf2.Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}
