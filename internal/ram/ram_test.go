package ram

import (
	"testing"
	"testing/quick"
)

func TestWOMBasic(t *testing.T) {
	m := NewWOM(16, 4)
	if m.Size() != 16 || m.Width() != 4 {
		t.Fatalf("geometry wrong: %d x %d", m.Size(), m.Width())
	}
	for a := 0; a < 16; a++ {
		if m.Read(a) != 0 {
			t.Fatalf("cell %d not zero-initialised", a)
		}
	}
	m.Write(3, 0xA)
	if m.Read(3) != 0xA {
		t.Errorf("readback = %x", m.Read(3))
	}
	// Writes are masked to the cell width.
	m.Write(4, 0x1F)
	if m.Read(4) != 0xF {
		t.Errorf("width mask not applied: %x", m.Read(4))
	}
}

func TestWOMPanicsOutOfRange(t *testing.T) {
	m := NewWOM(8, 4)
	for _, f := range []func(){
		func() { m.Read(8) },
		func() { m.Read(-1) },
		func() { m.Write(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestNewWOMValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewWOM(0, 4) },
		func() { NewWOM(-2, 4) },
		func() { NewWOM(4, 0) },
		func() { NewWOM(4, 33) },
		func() { NewBOM(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry accepted")
				}
			}()
			f()
		}()
	}
}

func TestBOMBasic(t *testing.T) {
	b := NewBOM(130) // crosses a word boundary in the packed storage
	if b.Size() != 130 || b.Width() != 1 {
		t.Fatalf("geometry wrong")
	}
	for _, a := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Write(a, 1)
		if b.Read(a) != 1 {
			t.Errorf("bit %d not set", a)
		}
		b.Write(a, 0)
		if b.Read(a) != 0 {
			t.Errorf("bit %d not cleared", a)
		}
		// Only the low bit of the data matters.
		b.Write(a, 2)
		if b.Read(a) != 0 {
			t.Errorf("bit %d took high data bits", a)
		}
	}
}

func TestBOMIndependence(t *testing.T) {
	b := NewBOM(256)
	b.Write(100, 1)
	for a := 0; a < 256; a++ {
		want := Word(0)
		if a == 100 {
			want = 1
		}
		if b.Read(a) != want {
			t.Fatalf("cell %d disturbed by write to 100", a)
		}
	}
}

func TestFillCheckerboardSnapshot(t *testing.T) {
	m := NewWOM(8, 4)
	Fill(m, 0xF)
	for a := 0; a < 8; a++ {
		if m.Read(a) != 0xF {
			t.Fatalf("Fill failed at %d", a)
		}
	}
	Checkerboard(m, 0x5)
	for a := 0; a < 8; a++ {
		want := Word(0x5)
		if a&1 == 1 {
			want = 0xA
		}
		if m.Read(a) != want {
			t.Fatalf("Checkerboard wrong at %d: %x", a, m.Read(a))
		}
	}
	snap := Snapshot(m)
	Fill(m, 0)
	Restore(m, snap)
	for a := 0; a < 8; a++ {
		if m.Read(a) != snap[a] {
			t.Fatalf("Restore failed at %d", a)
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := NewWOM(4, 4), NewWOM(4, 4)
	if !Equal(a, b) {
		t.Error("fresh memories should be equal")
	}
	b.Write(2, 1)
	if Equal(a, b) {
		t.Error("differing contents reported equal")
	}
	if Equal(NewWOM(4, 4), NewWOM(5, 4)) || Equal(NewWOM(4, 4), NewWOM(4, 5)) {
		t.Error("differing geometry reported equal")
	}
}

func TestRestoreLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Restore with wrong length did not panic")
		}
	}()
	Restore(NewWOM(4, 4), make([]Word, 5))
}

func TestQuickWOMLastWriteWins(t *testing.T) {
	m := NewWOM(64, 8)
	prop := func(addr uint8, v1, v2 Word) bool {
		a := int(addr) % 64
		m.Write(a, v1)
		m.Write(a, v2)
		return m.Read(a) == v2&0xFF
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBOMMatchesWOM1(t *testing.T) {
	// A BOM must behave exactly like a width-1 WOM under any op sequence.
	bom := NewBOM(128)
	wom := NewWOM(128, 1)
	prop := func(ops []uint16) bool {
		for _, op := range ops {
			a := int(op>>2) % 128
			switch op & 3 {
			case 0, 1:
				if bom.Read(a) != wom.Read(a) {
					return false
				}
			case 2:
				bom.Write(a, 0)
				wom.Write(a, 0)
			case 3:
				bom.Write(a, 1)
				wom.Write(a, 1)
			}
		}
		return Equal(bom, wom)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Fill writes v to every cell of m.
func Fill(m Memory, v Word) {
	for a := 0; a < m.Size(); a++ {
		m.Write(a, v)
	}
}

// Checkerboard writes alternating v, ^v patterns (masked) — the classic
// data background used by word-oriented March tests.
func Checkerboard(m Memory, v Word) {
	mask := Word(1)<<uint(m.Width()) - 1
	for a := 0; a < m.Size(); a++ {
		if a&1 == 0 {
			m.Write(a, v&mask)
		} else {
			m.Write(a, ^v&mask)
		}
	}
}
