// Package gf2 implements arithmetic on polynomials over GF(2), the
// two-element Galois field.
//
// A polynomial is represented by a Poly, a 64-bit unsigned integer in
// which bit i holds the coefficient of x^i.  The zero value is the zero
// polynomial.  This representation caps the degree at 63, which is ample
// for the pseudo-ring-testing reproduction: field moduli p(z) up to
// GF(2^32) and LFSR characteristic polynomials g(x) of small degree.
//
// The package provides what the field and LFSR code use: addition,
// Euclidean division and GCD, modular arithmetic (MulMod, PowMod),
// irreducibility and primitivity tests, parsing and formatting, and a
// table of default irreducible/primitive moduli for each extension
// degree used by the rest of the repository.
package gf2

import "math/bits"

// Poly is a polynomial over GF(2).  Bit i is the coefficient of x^i,
// e.g. Poly(0b10011) is x^4 + x + 1.
type Poly uint64

// Common small polynomials.
const (
	// Zero is the zero polynomial.
	Zero Poly = 0
	// One is the constant polynomial 1.
	One Poly = 1
	// X is the monomial x.
	X Poly = 2
)

// MaxDegree is the largest representable degree.
const MaxDegree = 63

// Deg returns the degree of p.  By convention the degree of the zero
// polynomial is -1.
func (p Poly) Deg() int {
	if p == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(p))
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return p == 0 }

// Coeff returns the coefficient of x^i (0 or 1).  Out-of-range indices
// yield 0.
func (p Poly) Coeff(i int) uint {
	if i < 0 || i > MaxDegree {
		return 0
	}
	return uint(p>>uint(i)) & 1
}

// Weight returns the number of non-zero coefficients of p.
func (p Poly) Weight() int { return bits.OnesCount64(uint64(p)) }

// Add returns p + q.  Over GF(2), addition and subtraction coincide with
// XOR.
func (p Poly) Add(q Poly) Poly { return p ^ q }

// DivMod returns the quotient and remainder of p divided by q.
// It panics if q is the zero polynomial.
func (p Poly) DivMod(q Poly) (quo, rem Poly) {
	if q == 0 {
		panic("gf2: division by zero polynomial")
	}
	dq := q.Deg()
	rem = p
	for rem.Deg() >= dq {
		shift := rem.Deg() - dq
		quo ^= 1 << uint(shift)
		rem ^= q << uint(shift)
	}
	return quo, rem
}

// Mod returns p mod q.
func (p Poly) Mod(q Poly) Poly {
	_, r := p.DivMod(q)
	return r
}

// GCD returns the greatest common divisor of p and q.  The result of
// GCD(0,0) is 0.
func GCD(p, q Poly) Poly {
	for q != 0 {
		p, q = q, p.Mod(q)
	}
	return p
}

// MulMod returns p*q mod f without intermediate overflow, provided
// f.Deg() <= 63.  It panics if f is zero.
func MulMod(p, q, f Poly) Poly {
	if f == 0 {
		panic("gf2: MulMod modulus is zero")
	}
	p = p.Mod(f)
	q = q.Mod(f)
	df := f.Deg()
	var r Poly
	for q != 0 {
		if q&1 == 1 {
			r ^= p
		}
		q >>= 1
		p <<= 1
		if p.Deg() == df {
			p ^= f
		}
	}
	return r
}

// PowMod returns p^e mod f using square-and-multiply.
func PowMod(p Poly, e uint64, f Poly) Poly {
	if f == 0 {
		panic("gf2: PowMod modulus is zero")
	}
	r := One.Mod(f)
	base := p.Mod(f)
	for e > 0 {
		if e&1 == 1 {
			r = MulMod(r, base, f)
		}
		base = MulMod(base, base, f)
		e >>= 1
	}
	return r
}
