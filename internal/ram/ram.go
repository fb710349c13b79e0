// Package ram provides behavioural models of the random-access
// memories targeted by pseudo-ring testing: bit-oriented (BOM) and
// word-oriented (WOM) arrays with one, two or four ports.
//
// These models stand in for the physical arrays of the paper (see
// DESIGN.md §3): a test algorithm only observes read values and write
// effects, so a functional model plus the fault-injection layers of
// package fault reproduces the behaviour the paper's analysis relies
// on.  Multi-port models give same-cycle semantics (all reads observe
// the pre-cycle state) which is what makes the Fig. 2 dual-port scheme
// finish in 2n cycles.
package ram

import "fmt"

// Word is a memory cell value.  Cells narrower than 32 bits use the low
// bits; models mask writes to the cell width.
type Word uint32

// Memory is a single-port random-access memory of Size() cells, each
// Width() bits wide.  Implementations panic on out-of-range addresses —
// an address bug in a test algorithm is a programming error, not a
// modelled fault (decoder faults are modelled in package fault).
type Memory interface {
	Read(addr int) Word
	Write(addr int, v Word)
	Size() int
	Width() int
}

// WOM is a word-oriented memory: n cells of m bits (1 <= m <= 32).
// The zero value is unusable; construct with NewWOM.
type WOM struct {
	cells []Word
	width int
	mask  Word
}

// NewWOM returns an n-cell memory of m-bit words, initialised to zero.
func NewWOM(n, m int) *WOM {
	if n < 1 {
		panic(fmt.Sprintf("ram: size %d must be positive", n))
	}
	if m < 1 || m > 32 {
		panic(fmt.Sprintf("ram: width %d out of range [1,32]", m))
	}
	return &WOM{
		cells: make([]Word, n),
		width: m,
		mask:  Word(1)<<uint(m) - 1,
	}
}

// Read returns the value of the addressed cell.
func (w *WOM) Read(addr int) Word { return w.cells[addr] }

// Write stores v (masked to the cell width) at addr.
func (w *WOM) Write(addr int, v Word) { w.cells[addr] = v & w.mask }

// Size returns the number of cells.
func (w *WOM) Size() int { return len(w.cells) }

// Width returns the cell width in bits.
func (w *WOM) Width() int { return w.width }

// BOM is a bit-oriented memory: n one-bit cells, bit-packed.  It is the
// m=1 special case of the paper's memory taxonomy with storage matching
// a real bit array.
type BOM struct {
	bits []uint64
	n    int
}

// NewBOM returns an n-cell bit-oriented memory initialised to zero.
func NewBOM(n int) *BOM {
	if n < 1 {
		panic(fmt.Sprintf("ram: size %d must be positive", n))
	}
	return &BOM{bits: make([]uint64, (n+63)/64), n: n}
}

// Read returns the addressed bit (0 or 1).
func (b *BOM) Read(addr int) Word {
	if addr < 0 || addr >= b.n {
		panic(fmt.Sprintf("ram: address %d out of range [0,%d)", addr, b.n))
	}
	return Word(b.bits[addr>>6] >> uint(addr&63) & 1)
}

// Write stores the low bit of v at addr.
func (b *BOM) Write(addr int, v Word) {
	if addr < 0 || addr >= b.n {
		panic(fmt.Sprintf("ram: address %d out of range [0,%d)", addr, b.n))
	}
	if v&1 == 1 {
		b.bits[addr>>6] |= 1 << uint(addr&63)
	} else {
		b.bits[addr>>6] &^= 1 << uint(addr&63)
	}
}

// Size returns the number of cells.
func (b *BOM) Size() int { return b.n }

// Width returns 1.
func (b *BOM) Width() int { return 1 }

// --- helpers shared by tests, examples and the campaign engine ---

// Snapshot copies the full contents of m.
func Snapshot(m Memory) []Word {
	out := make([]Word, m.Size())
	for a := range out {
		out[a] = m.Read(a)
	}
	return out
}

// Restore writes the snapshot back into m; lengths must match.
func Restore(m Memory, snap []Word) {
	if len(snap) != m.Size() {
		panic("ram: snapshot length mismatch")
	}
	for a, v := range snap {
		m.Write(a, v)
	}
}

// Equal reports whether two memories have identical size, width and
// contents.
func Equal(a, b Memory) bool {
	if a.Size() != b.Size() || a.Width() != b.Width() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if a.Read(i) != b.Read(i) {
			return false
		}
	}
	return true
}
