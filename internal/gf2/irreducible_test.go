package gf2

import "testing"

func TestIsIrreducibleKnown(t *testing.T) {
	irreducible := []Poly{
		2,     // x
		3,     // x+1
		7,     // x^2+x+1
		0xB,   // x^3+x+1
		0xD,   // x^3+x^2+1
		0x13,  // x^4+x+1 (paper)
		0x19,  // x^4+x^3+1
		0x1F,  // x^4+x^3+x^2+x+1
		0x25,  // x^5+x^2+1
		0x11B, // AES polynomial x^8+x^4+x^3+x+1
		0x11D,
	}
	for _, p := range irreducible {
		if !IsIrreducible(p) {
			t.Errorf("%v (%#x) should be irreducible", p, uint64(p))
		}
	}
	reducible := []Poly{
		0,    // zero
		1,    // unit
		4,    // x^2
		5,    // (x+1)^2
		6,    // x(x+1)
		9,    // (x+1)(x^2+x+1)
		0xF,  // (x+1)(x^3+x^2+1)... even weight anyway
		0x11, // x^4+1 = (x+1)^4
		0x15, // x^4+x^2+1 = (x^2+x+1)^2
		0x1B, // divisible by x+1? weight 4 -> yes
	}
	for _, p := range reducible {
		if IsIrreducible(p) {
			t.Errorf("%v (%#x) should be reducible", p, uint64(p))
		}
	}
}

func TestIrreduciblesCountMatchesFormula(t *testing.T) {
	for k := 1; k <= 12; k++ {
		got := uint64(len(Irreducibles(k)))
		want := CountIrreducibles(k)
		if got != want {
			t.Errorf("degree %d: enumerated %d irreducibles, formula says %d", k, got, want)
		}
	}
}

func TestCountIrreduciblesKnownValues(t *testing.T) {
	// OEIS A001037 (starting at k=1): 2, 1, 2, 3, 6, 9, 18, 30, 56, 99
	want := []uint64{2, 1, 2, 3, 6, 9, 18, 30, 56, 99}
	for i, w := range want {
		if got := CountIrreducibles(i + 1); got != w {
			t.Errorf("CountIrreducibles(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestIrreduciblesProductCheck(t *testing.T) {
	// Every listed irreducible of degree 4 must divide x^16 - x and be
	// coprime to all others.
	irr := Irreducibles(4)
	x16x := PowMod(X, 16, Poly(1)<<20) // x^16 un-reduced within capacity
	_ = x16x
	for i, p := range irr {
		// x^(2^4) ≡ x mod p
		if frobeniusPower(4, p) != X.Mod(p) {
			t.Errorf("%v does not divide x^16-x", p)
		}
		for j, q := range irr {
			if i != j && GCD(p, q) != 1 {
				t.Errorf("distinct irreducibles %v,%v share a factor", p, q)
			}
		}
	}
}

func TestMoebius(t *testing.T) {
	want := map[int]int{1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0, 30: -1}
	for n, w := range want {
		if got := moebius(n); got != w {
			t.Errorf("moebius(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestPrimeFactorsInt(t *testing.T) {
	cases := map[int][]int{
		2:  {2},
		12: {2, 3},
		30: {2, 3, 5},
		49: {7},
		97: {97},
	}
	for n, want := range cases {
		got := primeFactorsInt(n)
		if len(got) != len(want) {
			t.Errorf("primeFactorsInt(%d) = %v, want %v", n, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("primeFactorsInt(%d) = %v, want %v", n, got, want)
			}
		}
	}
}

// --- helpers: the enumeration the tests walk and the count it must match ---

// Irreducibles returns all irreducible polynomials of exactly degree k
// in ascending numeric order.  It is intended for small k (the count
// grows like 2^k/k); k must be between 1 and 24.
func Irreducibles(k int) []Poly {
	if k < 1 || k > 24 {
		panic("gf2: Irreducibles degree out of range [1,24]")
	}
	var out []Poly
	lo := Poly(1) << uint(k)
	hi := Poly(1) << uint(k+1)
	for p := lo; p < hi; p++ {
		if IsIrreducible(p) {
			out = append(out, p)
		}
	}
	return out
}

// CountIrreducibles returns the number of monic irreducible polynomials
// of degree k over GF(2), computed by the necklace-counting formula
//
//	N(k) = (1/k) * Σ_{d|k} μ(k/d) 2^d .
func CountIrreducibles(k int) uint64 {
	if k < 1 || k > 62 {
		panic("gf2: CountIrreducibles degree out of range")
	}
	var sum int64
	for d := 1; d <= k; d++ {
		if k%d != 0 {
			continue
		}
		mu := moebius(k / d)
		if mu == 0 {
			continue
		}
		sum += int64(mu) * int64(uint64(1)<<uint(d))
	}
	return uint64(sum) / uint64(k)
}

// moebius returns the Möbius function μ(n).
func moebius(n int) int {
	if n == 1 {
		return 1
	}
	mu := 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			n /= d
			if n%d == 0 {
				return 0 // square factor
			}
			mu = -mu
		}
	}
	if n > 1 {
		mu = -mu
	}
	return mu
}
