package gf

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestIdentityMatrix(t *testing.T) {
	id := IdentityMatrix(4)
	for x := uint32(0); x < 16; x++ {
		if id.Apply(x) != x {
			t.Fatalf("identity.Apply(%x) = %x", x, id.Apply(x))
		}
	}
	if id.Rank() != 4 || !id.Invertible() {
		t.Errorf("identity rank/invertibility wrong")
	}
}

func TestBitMatrixGetSet(t *testing.T) {
	m := NewBitMatrix(3)
	m.Set(0, 2, 1)
	m.Set(1, 1, 1)
	m.Set(2, 0, 1)
	if m.Get(0, 2) != 1 || m.Get(0, 0) != 0 {
		t.Errorf("Get/Set broken")
	}
	// Anti-diagonal reverses bit order: 0b001 -> 0b100.
	if m.Apply(0b001) != 0b100 || m.Apply(0b110) != 0b011 {
		t.Errorf("anti-diagonal Apply wrong")
	}
	m.Set(0, 2, 0)
	if m.Get(0, 2) != 0 {
		t.Errorf("Set clear broken")
	}
}

func TestMatrixMulMatchesComposition(t *testing.T) {
	f := NewField(4)
	a := f.ConstMulMatrix(7)
	b := f.ConstMulMatrix(5)
	ab := a.Mul(b)
	for x := uint32(0); x < 16; x++ {
		if ab.Apply(x) != a.Apply(b.Apply(x)) {
			t.Fatalf("matrix product != composition at %x", x)
		}
	}
	// Matrix of 7*5 = Mul(7,5) must equal the product matrix.
	c := f.ConstMulMatrix(f.Mul(7, 5))
	if !ab.Equal(c) {
		t.Errorf("M_7 * M_5 != M_{7*5}")
	}
}

func TestMatrixAdd(t *testing.T) {
	f := NewField(4)
	a := f.ConstMulMatrix(3)
	b := f.ConstMulMatrix(5)
	sum := a.Add(b)
	c := f.ConstMulMatrix(3 ^ 5) // additivity of the representation
	if !sum.Equal(c) {
		t.Errorf("M_3 + M_5 != M_{3+5}")
	}
}

func TestConstMulMatrixAgainstField(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8} {
		f := NewField(m)
		for c := Elem(0); c <= f.Mask(); c++ {
			mat := f.ConstMulMatrix(c)
			for x := Elem(0); x <= f.Mask(); x++ {
				if got, want := Elem(mat.Apply(uint32(x))), f.Mul(c, x); got != want {
					t.Fatalf("GF(2^%d): M_%x(%x) = %x, want %x", m, c, x, got, want)
				}
			}
			if m > 4 && c > 20 {
				break // spot-check larger fields
			}
		}
	}
}

func TestConstMulMatrixInvertibility(t *testing.T) {
	f := NewField(4)
	if f.ConstMulMatrix(0).Rank() != 0 {
		t.Errorf("M_0 should be the zero matrix")
	}
	for c := Elem(1); c < 16; c++ {
		if !f.ConstMulMatrix(c).Invertible() {
			t.Errorf("M_%x should be invertible (nonzero constant)", c)
		}
	}
}

func TestRank(t *testing.T) {
	m := NewBitMatrix(3)
	// Rows: 110, 011, 101 -> row1+row2 = 101 = row3, rank 2.
	m.Rows[0] = 0b011
	m.Rows[1] = 0b110
	m.Rows[2] = 0b101
	if got := m.Rank(); got != 2 {
		t.Errorf("rank = %d, want 2", got)
	}
	if m.Invertible() {
		t.Errorf("singular matrix reported invertible")
	}
}

func TestMatrixString(t *testing.T) {
	id := IdentityMatrix(2)
	if got := id.String(); got != "10\n01" {
		t.Errorf("String() = %q", got)
	}
}

func TestElemFromBits(t *testing.T) {
	f := NewField(4)
	if _, err := f.ElemFromBits(0xF); err != nil {
		t.Errorf("0xF should be valid in GF(16)")
	}
	if _, err := f.ElemFromBits(0x10); err == nil {
		t.Errorf("0x10 should be rejected in GF(16)")
	}
}

func TestQuickApplyLinear(t *testing.T) {
	f := NewField(8)
	mat := f.ConstMulMatrix(0xB7)
	prop := func(a, b uint32) bool {
		x, y := a&0xFF, b&0xFF
		return mat.Apply(x^y) == mat.Apply(x)^mat.Apply(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// --- helpers: evaluating and combining the matrices under test ---

// Set sets entry (i,j) to v&1.
func (a BitMatrix) Set(i, j int, v uint) {
	if v&1 == 1 {
		a.Rows[i] |= 1 << uint(j)
	} else {
		a.Rows[i] &^= 1 << uint(j)
	}
}

// Apply multiplies the matrix by the column vector x (bit j of x is
// component j) and returns the resulting bit vector.
func (a BitMatrix) Apply(x uint32) uint32 {
	var y uint32
	for i := 0; i < a.N; i++ {
		y |= uint32(bits.OnesCount32(a.Rows[i]&x)&1) << uint(i)
	}
	return y
}

// Mul returns the matrix product a*b.
func (a BitMatrix) Mul(b BitMatrix) BitMatrix {
	if a.N != b.N {
		panic("gf: BitMatrix dimension mismatch")
	}
	// c[i][j] = XOR_k a[i][k] & b[k][j]; compute row-wise: row i of c is
	// the XOR of rows k of b for which a[i][k] is set.
	c := NewBitMatrix(a.N)
	for i := 0; i < a.N; i++ {
		var row uint32
		r := a.Rows[i]
		for r != 0 {
			k := bits.TrailingZeros32(r)
			row ^= b.Rows[k]
			r &= r - 1
		}
		c.Rows[i] = row
	}
	return c
}

// Add returns a + b (entrywise XOR).
func (a BitMatrix) Add(b BitMatrix) BitMatrix {
	if a.N != b.N {
		panic("gf: BitMatrix dimension mismatch")
	}
	c := NewBitMatrix(a.N)
	for i := range c.Rows {
		c.Rows[i] = a.Rows[i] ^ b.Rows[i]
	}
	return c
}

// Rank returns the GF(2) rank via Gaussian elimination.
func (a BitMatrix) Rank() int {
	rows := make([]uint32, len(a.Rows))
	copy(rows, a.Rows)
	rank := 0
	for col := 0; col < a.N && rank < len(rows); col++ {
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r]>>uint(col)&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		for r := 0; r < len(rows); r++ {
			if r != rank && rows[r]>>uint(col)&1 == 1 {
				rows[r] ^= rows[rank]
			}
		}
		rank++
	}
	return rank
}

// Invertible reports whether the matrix is nonsingular over GF(2).
func (a BitMatrix) Invertible() bool { return a.Rank() == a.N }
