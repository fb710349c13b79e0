package gf

import "fmt"

// BitMatrix is an m×m matrix over GF(2), stored as one uint32 bitmask
// per row (bit j of Rows[i] is entry (i,j)).  It represents GF(2)-linear
// maps on field elements: multiplication by a constant and the per-bit
// view of a word-oriented LFSR both reduce to BitMatrix application,
// which is what the BIST XOR network implements in gates.
type BitMatrix struct {
	N    int      // dimension
	Rows []uint32 // len N, row i in bit j
}

// NewBitMatrix returns the zero n×n matrix.
func NewBitMatrix(n int) BitMatrix {
	if n < 1 || n > 32 {
		panic("gf: BitMatrix dimension out of range [1,32]")
	}
	return BitMatrix{N: n, Rows: make([]uint32, n)}
}

// IdentityMatrix returns the n×n identity.
func IdentityMatrix(n int) BitMatrix {
	m := NewBitMatrix(n)
	for i := 0; i < n; i++ {
		m.Rows[i] = 1 << uint(i)
	}
	return m
}

// Get returns entry (i,j).
func (a BitMatrix) Get(i, j int) uint { return uint(a.Rows[i]>>uint(j)) & 1 }

// Equal reports whether the matrices are identical.
func (a BitMatrix) Equal(b BitMatrix) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return false
		}
	}
	return true
}

// String renders the matrix as rows of 0/1.
func (a BitMatrix) String() string {
	s := ""
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if a.Get(i, j) == 1 {
				s += "1"
			} else {
				s += "0"
			}
		}
		if i < a.N-1 {
			s += "\n"
		}
	}
	return s
}

// ConstMulMatrix returns the m×m GF(2) matrix M_c of multiplication by
// the constant c: for every x, f.Mul(c, x) equals M_c applied to x.
// Column j of M_c is the element c*z^j.  This matrix is exactly the
// XOR network the paper proposes embedding in the memory circuit
// ("multiplier by a constant contains only XOR-gates").
func (f *Field) ConstMulMatrix(c Elem) BitMatrix {
	f.check(c)
	m := NewBitMatrix(f.m)
	zj := Elem(1) // z^j
	for j := 0; j < f.m; j++ {
		col := f.Mul(c, zj)
		for i := 0; i < f.m; i++ {
			if col>>uint(i)&1 == 1 {
				m.Rows[i] |= 1 << uint(j)
			}
		}
		if f.m > 1 {
			zj = f.Mul(zj, 2) // advance to z^(j+1)
		}
	}
	return m
}

// ElemFromBits converts a raw uint32 to an Elem, checking range.
func (f *Field) ElemFromBits(v uint32) (Elem, error) {
	if Elem(v) > f.mask {
		return 0, fmt.Errorf("gf: %#x outside GF(2^%d)", v, f.m)
	}
	return Elem(v), nil
}
