package lfsr

import "repro/internal/gf"

// Matrix is a small dense k×k matrix over GF(2^m), used for the
// companion-matrix model of the automaton and for jump-ahead.
type Matrix struct {
	Field *gf.Field
	K     int
	A     [][]gf.Elem // row major
}

// NewMatrix returns the zero k×k matrix over f.
func NewMatrix(f *gf.Field, k int) Matrix {
	if k < 1 {
		panic("lfsr: matrix dimension must be positive")
	}
	a := make([][]gf.Elem, k)
	for i := range a {
		a[i] = make([]gf.Elem, k)
	}
	return Matrix{Field: f, K: k, A: a}
}

// Identity returns the k×k identity over f.
func Identity(f *gf.Field, k int) Matrix {
	m := NewMatrix(f, k)
	for i := 0; i < k; i++ {
		m.A[i][i] = 1
	}
	return m
}

// Companion returns the state-transition matrix of the plain (q = 0)
// automaton with generator polynomial g, acting on the state window
// (oldest first):
//
//	(u_{t-k+1}, …, u_t)  =  C · (u_{t-k}, …, u_{t-1})ᵀ
//
// Row i<k-1 shifts; the last row holds the recurrence weights.
func Companion(g GenPoly) Matrix {
	k := g.K()
	m := NewMatrix(g.Field, k)
	for i := 0; i < k-1; i++ {
		m.A[i][i+1] = 1
	}
	// u_t = Σ_{j=1..k} a_j u_{t-j}; u_{t-j} sits at window index k-j.
	for j := 1; j <= k; j++ {
		m.A[k-1][k-j] = g.Coeffs[j]
	}
	return m
}

// Apply multiplies the matrix by the column vector v.
func (m Matrix) Apply(v []gf.Elem) []gf.Elem {
	if len(v) != m.K {
		panic("lfsr: vector length mismatch")
	}
	f := m.Field
	out := make([]gf.Elem, m.K)
	for i := 0; i < m.K; i++ {
		var acc gf.Elem
		for j := 0; j < m.K; j++ {
			if m.A[i][j] != 0 && v[j] != 0 {
				acc = f.Add(acc, f.Mul(m.A[i][j], v[j]))
			}
		}
		out[i] = acc
	}
	return out
}

// Mul returns the matrix product m*n.
func (m Matrix) Mul(n Matrix) Matrix {
	if m.K != n.K {
		panic("lfsr: matrix dimension mismatch")
	}
	f := m.Field
	out := NewMatrix(f, m.K)
	for i := 0; i < m.K; i++ {
		for j := 0; j < m.K; j++ {
			var acc gf.Elem
			for l := 0; l < m.K; l++ {
				if m.A[i][l] != 0 && n.A[l][j] != 0 {
					acc = f.Add(acc, f.Mul(m.A[i][l], n.A[l][j]))
				}
			}
			out.A[i][j] = acc
		}
	}
	return out
}

// Pow returns m^e by square-and-multiply (m⁰ = identity).
func (m Matrix) Pow(e uint64) Matrix {
	r := Identity(m.Field, m.K)
	base := m
	for e > 0 {
		if e&1 == 1 {
			r = r.Mul(base)
		}
		base = base.Mul(base)
		e >>= 1
	}
	return r
}

// Equal reports whether two matrices over the same field are equal.
func (m Matrix) Equal(n Matrix) bool {
	if m.K != n.K {
		return false
	}
	for i := range m.A {
		for j := range m.A[i] {
			if m.A[i][j] != n.A[i][j] {
				return false
			}
		}
	}
	return true
}

// IsIdentity reports whether m is the identity matrix.
func (m Matrix) IsIdentity() bool { return m.Equal(Identity(m.Field, m.K)) }

// Det returns the determinant via fraction-free Gaussian elimination
// over the field.
func (m Matrix) Det() gf.Elem {
	f := m.Field
	k := m.K
	a := make([][]gf.Elem, k)
	for i := range a {
		a[i] = append([]gf.Elem(nil), m.A[i]...)
	}
	det := gf.Elem(1)
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return 0
		}
		if pivot != col {
			a[pivot], a[col] = a[col], a[pivot]
			// Row swap negates the determinant; in characteristic 2 the
			// sign is irrelevant.
		}
		det = f.Mul(det, a[col][col])
		inv := f.Inv(a[col][col])
		for r := col + 1; r < k; r++ {
			if a[r][col] == 0 {
				continue
			}
			factor := f.Mul(a[r][col], inv)
			for c := col; c < k; c++ {
				a[r][c] = f.Add(a[r][c], f.Mul(factor, a[col][c]))
			}
		}
	}
	return det
}

// Order returns the multiplicative order of the matrix (least e>0 with
// m^e = I), provided the order divides bound; it panics if m is
// singular and returns 0 if no divisor of bound works.  For a companion
// matrix of an LFSR over GF(2^m) with k stages, bound = (2^m)^k - 1
// always works when the characteristic polynomial is irreducible; for
// reducible polynomials use lcm-style bounds or the sequence Period.
func (m Matrix) Order(bound uint64) uint64 {
	if m.Det() == 0 {
		panic("lfsr: order of singular matrix")
	}
	if !m.Pow(bound).IsIdentity() {
		return 0
	}
	e := bound
	primes, _ := factor64(bound)
	for _, q := range primes {
		for e%q == 0 && m.Pow(e/q).IsIdentity() {
			e /= q
		}
	}
	return e
}

func factor64(n uint64) (primes []uint64, exps []int) {
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
	return
}
