package ram

import "testing"

func TestDualPortSimultaneousReadWrite(t *testing.T) {
	dp := NewDualPort(8, 4)
	dp.Backing().Write(1, 0x9)
	// Port A reads cell 1 while port B writes it: the read must observe
	// the pre-cycle value (read-before-write cycle semantics).
	out := dp.Cycle([]PortOp{ReadOp(1), WriteOp(1, 0x3)})
	if out[0] != 0x9 {
		t.Errorf("simultaneous read saw %x, want pre-cycle 0x9", out[0])
	}
	if dp.Backing().Read(1) != 0x3 {
		t.Errorf("write did not commit")
	}
	if dp.Cycles != 1 {
		t.Errorf("cycle count = %d", dp.Cycles)
	}
}

func TestDualPortWriteConflict(t *testing.T) {
	dp := NewDualPort(8, 4)
	dp.Cycle([]PortOp{WriteOp(2, 0x5), WriteOp(2, 0xA)})
	if dp.Backing().Read(2) != 0x5 {
		t.Errorf("lowest port should win conflicts, got %x", dp.Backing().Read(2))
	}
	if dp.WriteConflicts != 1 {
		t.Errorf("conflict count = %d", dp.WriteConflicts)
	}
	// Writes to distinct cells do not conflict.
	dp.Cycle([]PortOp{WriteOp(3, 1), WriteOp(4, 2)})
	if dp.WriteConflicts != 1 {
		t.Errorf("false conflict recorded")
	}
}

func TestDualPortDoubleRead(t *testing.T) {
	dp := NewDualPort(8, 4)
	dp.Backing().Write(5, 0x7)
	dp.Backing().Write(6, 0x2)
	out := dp.Cycle([]PortOp{ReadOp(5), ReadOp(6)})
	if out[0] != 0x7 || out[1] != 0x2 {
		t.Errorf("double read = %v", out)
	}
	if dp.PortReads[0] != 1 || dp.PortReads[1] != 1 {
		t.Errorf("per-port read counters wrong: %v", dp.PortReads)
	}
}

func TestPortViewIsMemory(t *testing.T) {
	var _ Memory = NewWOM(4, 4)
	var _ Memory = NewBOM(4)
}

func TestQuadPort(t *testing.T) {
	qp := NewMultiPort(16, 8, 4)
	if qp.Ports() != 4 {
		t.Fatalf("quad port has %d ports", qp.Ports())
	}
	qp.Backing().Write(0, 0xAA)
	out := qp.Cycle([]PortOp{ReadOp(0), WriteOp(1, 0x11), ReadOp(0), Idle()})
	if out[0] != 0xAA || out[2] != 0xAA {
		t.Errorf("quad reads wrong: %v", out)
	}
	if qp.Backing().Read(1) != 0x11 {
		t.Errorf("quad write missing")
	}
}

func TestMultiPortValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewMultiPort(8, 4, 0) },
		func() { NewMultiPort(8, 4, 9) },
		func() { NewDualPort(8, 4).Cycle([]PortOp{Idle()}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid multiport use did not panic")
				}
			}()
			f()
		}()
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "r" || OpWrite.String() != "w" {
		t.Error("OpKind strings wrong")
	}
}

func TestMultiPortIdleCycle(t *testing.T) {
	dp := NewDualPort(8, 4)
	before := Snapshot(dp.Backing())
	dp.Cycle([]PortOp{Idle(), Idle()})
	after := Snapshot(dp.Backing())
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("idle cycle changed memory")
		}
	}
	if dp.Cycles != 1 {
		t.Errorf("idle cycle not counted")
	}
}
