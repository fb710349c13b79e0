package gf2

// Factor64 returns the prime factorisation of n as parallel slices of
// primes and exponents, by trial division.  n must be >= 1; Factor64(1)
// returns empty slices.  Trial division is adequate for the magnitudes
// used here (orders up to 2^40 or so).
func Factor64(n uint64) (primes []uint64, exps []int) {
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			e := 0
			for n%d == 0 {
				n /= d
				e++
			}
			primes = append(primes, d)
			exps = append(exps, e)
		}
	}
	if n > 1 {
		primes = append(primes, n)
		exps = append(exps, 1)
	}
	return primes, exps
}

// IsPrimitive reports whether p is a primitive polynomial over GF(2):
// irreducible with the order of x equal to 2^deg(p) - 1.  A primitive
// polynomial generates a maximum-length LFSR sequence.
func IsPrimitive(p Poly) bool {
	k := p.Deg()
	if k < 1 || k > 40 {
		return false
	}
	if k == 1 {
		// x+1 is the only degree-1 irreducible with nonzero constant
		// term; GF(2)* is trivial, so it is primitive by convention.
		return p == 3
	}
	if !IsIrreducible(p) {
		return false
	}
	group := uint64(1)<<uint(k) - 1
	primes, _ := Factor64(group)
	for _, q := range primes {
		if PowMod(X, group/q, p) == One {
			return false
		}
	}
	return true
}

// FirstPrimitive returns the numerically smallest primitive polynomial
// of degree k, 1 <= k <= 40.
func FirstPrimitive(k int) Poly {
	if k < 1 || k > 40 {
		panic("gf2: FirstPrimitive degree out of range [1,40]")
	}
	lo := Poly(1) << uint(k)
	hi := Poly(1)<<uint(k+1) - 1
	for p := lo; ; p++ {
		if IsPrimitive(p) {
			return p
		}
		if p == hi {
			panic("gf2: no primitive polynomial found (unreachable)")
		}
	}
}
