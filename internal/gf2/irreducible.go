package gf2

// IsIrreducible reports whether p is irreducible over GF(2) using
// Rabin's test: p of degree k is irreducible iff
//
//	x^(2^k)  ≡ x (mod p), and
//	gcd(x^(2^(k/q)) - x, p) = 1 for every prime q dividing k.
//
// Constant polynomials and the zero polynomial are not irreducible; the
// degree-1 polynomials x and x+1 are.
func IsIrreducible(p Poly) bool {
	k := p.Deg()
	if k <= 0 {
		return false
	}
	if k == 1 {
		return true
	}
	// Any polynomial with zero constant term is divisible by x.
	if p.Coeff(0) == 0 {
		return false
	}
	// An even coefficient weight means p(1)=0, i.e. divisible by x+1.
	if p.Weight()%2 == 0 {
		return false
	}
	// Rabin: for each prime q | k, gcd(x^(2^(k/q)) + x, p) must be 1.
	for _, q := range primeFactorsInt(k) {
		h := frobeniusPower(k/q, p) // x^(2^(k/q)) mod p
		if GCD(h.Add(X.Mod(p)), p) != One {
			return false
		}
	}
	// And x^(2^k) ≡ x (mod p).
	return frobeniusPower(k, p) == X.Mod(p)
}

// frobeniusPower returns x^(2^t) mod p by repeated squaring of x.
func frobeniusPower(t int, p Poly) Poly {
	r := X.Mod(p)
	for i := 0; i < t; i++ {
		r = MulMod(r, r, p)
	}
	return r
}

// primeFactorsInt returns the distinct prime factors of n (n >= 1) in
// ascending order.
func primeFactorsInt(n int) []int {
	var f []int
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			f = append(f, d)
			for n%d == 0 {
				n /= d
			}
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	return f
}
