// Package gf implements the extension fields GF(2^m) used by
// word-oriented pseudo-ring testing.
//
// A Field is constructed from an irreducible modulus p(z) over GF(2)
// (see package gf2).  Field elements are represented as Elem, an
// unsigned integer whose bit j is the coefficient of z^j; the value
// therefore ranges over [0, 2^m).  For m <= 16 the field precomputes
// discrete log/antilog tables keyed to a generator, making Mul and Inv
// O(1); for larger m it falls back to shift-and-add reduction.
//
// The paper's worked example is GF(2^4) with p(z) = 1 + z + z^4, which
// NewField(4) reproduces exactly.
package gf

import (
	"fmt"

	"repro/internal/gf2"
)

// Elem is an element of GF(2^m), with bit j the coefficient of z^j.
type Elem uint32

// MaxM is the largest supported extension degree.
const MaxM = 32

// tableMaxM bounds the extension degree for which log/antilog tables
// are materialised (2^16 entries of 4 bytes each is still small).
const tableMaxM = 16

// Field is a concrete GF(2^m).  The zero value is not usable; construct
// with NewField or NewFieldPoly.  A Field is immutable after
// construction and safe for concurrent use.
type Field struct {
	m    int      // extension degree
	p    gf2.Poly // irreducible modulus p(z), degree m
	mask Elem     // 2^m - 1
	gen  Elem     // a multiplicative generator (primitive element)

	// log/exp tables; nil when m > tableMaxM.
	// exp has 2*(2^m-1) entries so Mul can skip one modular reduction.
	log []uint32
	exp []Elem
}

// NewField returns GF(2^m) over the repository default modulus
// gf2.DefaultModulus(m) (a primitive polynomial, so z itself generates
// the multiplicative group).  It panics if m is outside [1, MaxM].
func NewField(m int) *Field {
	f, err := NewFieldPoly(gf2.DefaultModulus(m))
	if err != nil {
		panic(err) // unreachable: default moduli are irreducible
	}
	return f
}

// NewFieldPoly returns GF(2^m) with modulus p, where m = p.Deg().
// It returns an error if p is not irreducible or m is out of range.
func NewFieldPoly(p gf2.Poly) (*Field, error) {
	m := p.Deg()
	if m < 1 || m > MaxM {
		return nil, fmt.Errorf("gf: modulus degree %d out of range [1,%d]", m, MaxM)
	}
	if !gf2.IsIrreducible(p) {
		return nil, fmt.Errorf("gf: modulus %v is not irreducible", p)
	}
	f := &Field{m: m, p: p, mask: Elem(1)<<uint(m) - 1}
	if m <= tableMaxM {
		f.buildTables()
	}
	f.gen = f.findGenerator()
	return f, nil
}

// M returns the extension degree m.
func (f *Field) M() int { return f.m }

// Modulus returns the field modulus p(z).
func (f *Field) Modulus() gf2.Poly { return f.p }

// Size returns the number of field elements, 2^m.
func (f *Field) Size() int { return int(f.mask) + 1 }

// Mask returns 2^m - 1, the all-ones element.
func (f *Field) Mask() Elem { return f.mask }

// Generator returns a primitive element of the multiplicative group.
// When the modulus is primitive (the default), this is z itself (Elem 2)
// except in GF(2) where it is 1.
func (f *Field) Generator() Elem { return f.gen }

// Contains reports whether v is a valid element of the field.
func (f *Field) Contains(v Elem) bool { return v <= f.mask }

// check panics if v is not a field element; internal guard used by the
// arithmetic entry points so corrupt values fail loudly.
func (f *Field) check(v Elem) {
	if v > f.mask {
		panic(fmt.Sprintf("gf: value %#x outside GF(2^%d)", uint32(v), f.m))
	}
}

// Add returns a + b (XOR).
func (f *Field) Add(a, b Elem) Elem {
	f.check(a)
	f.check(b)
	return a ^ b
}

// Mul returns the product a*b mod p(z).
func (f *Field) Mul(a, b Elem) Elem {
	f.check(a)
	f.check(b)
	if f.log != nil {
		if a == 0 || b == 0 {
			return 0
		}
		return f.exp[uint64(f.log[a])+uint64(f.log[b])]
	}
	return f.mulShiftAdd(a, b)
}

// mulShiftAdd is the table-free multiply used for large m (and by the
// ablation bench comparing multiply strategies).
func (f *Field) mulShiftAdd(a, b Elem) Elem {
	return Elem(gf2.MulMod(gf2.Poly(a), gf2.Poly(b), f.p))
}

// MulNoTable returns a*b using shift-and-add reduction regardless of
// whether tables exist.  Exposed for the multiply-strategy ablation.
func (f *Field) MulNoTable(a, b Elem) Elem {
	f.check(a)
	f.check(b)
	return f.mulShiftAdd(a, b)
}

// Inv returns the multiplicative inverse of a.  It panics if a is 0.
func (f *Field) Inv(a Elem) Elem {
	f.check(a)
	if a == 0 {
		panic("gf: inverse of zero")
	}
	if f.log != nil {
		n := uint32(f.mask) // group order 2^m - 1
		return f.exp[(n-f.log[a])%n]
	}
	// a^(2^m - 2) by square-and-multiply.
	return f.Pow(a, uint64(f.mask)-1)
}

// Pow returns a^e (a^0 = 1, including 0^0 = 1 by convention).
func (f *Field) Pow(a Elem, e uint64) Elem {
	f.check(a)
	r := Elem(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			r = f.Mul(r, base)
		}
		base = f.Mul(base, base)
		e >>= 1
	}
	return r
}

// Order returns the multiplicative order of a (the least e>0 with
// a^e = 1).  It panics if a is 0.
func (f *Field) Order(a Elem) uint64 {
	f.check(a)
	if a == 0 {
		panic("gf: order of zero")
	}
	group := uint64(f.mask)
	if group == 0 {
		return 1
	}
	e := group
	primes, _ := gf2.Factor64(group)
	for _, q := range primes {
		for e%q == 0 && f.Pow(a, e/q) == 1 {
			e /= q
		}
	}
	return e
}

// buildTables fills the log/exp tables by walking powers of z.  If z is
// not a generator (non-primitive modulus) a true generator is found by
// scanning; tables are keyed to it.
func (f *Field) buildTables() {
	n := int(f.mask) // 2^m - 1
	if n == 0 {
		return // GF(2): tables are pointless
	}
	g := f.scanGenerator()
	f.log = make([]uint32, n+1)
	f.exp = make([]Elem, 2*n)
	v := Elem(1)
	for i := 0; i < n; i++ {
		f.exp[i] = v
		f.exp[i+n] = v
		f.log[v] = uint32(i)
		v = f.mulShiftAdd(v, g)
	}
	if v != 1 {
		panic("gf: generator scan failed to close the cycle")
	}
}

// scanGenerator finds the smallest multiplicative generator by direct
// order checks using shift-add multiplication (tables not yet built).
func (f *Field) scanGenerator() Elem {
	group := uint64(f.mask)
	if group <= 1 {
		return 1
	}
	primes, _ := gf2.Factor64(group)
candidates:
	for c := Elem(2); c <= f.mask; c++ {
		for _, q := range primes {
			if f.powShiftAdd(c, group/q) == 1 {
				continue candidates
			}
		}
		return c
	}
	panic("gf: no generator found (modulus not irreducible?)")
}

func (f *Field) powShiftAdd(a Elem, e uint64) Elem {
	r := Elem(1)
	for e > 0 {
		if e&1 == 1 {
			r = f.mulShiftAdd(r, a)
		}
		a = f.mulShiftAdd(a, a)
		e >>= 1
	}
	return r
}

// findGenerator returns the cached generator used for tables, or scans
// when tables are disabled.
func (f *Field) findGenerator() Elem {
	if f.exp != nil {
		return f.exp[1]
	}
	return f.scanGenerator()
}

// String describes the field, e.g. "GF(2^4) mod 1 + z + z^4".
func (f *Field) String() string {
	return fmt.Sprintf("GF(2^%d) mod %v", f.m, f.p)
}

// FormatElem renders v as a hexadecimal literal padded to the field
// width, e.g. "0x3" in GF(2^4), matching the paper's Fig. 1b labels.
func (f *Field) FormatElem(v Elem) string {
	digits := (f.m + 3) / 4
	return fmt.Sprintf("%0*X", digits, uint32(v))
}
