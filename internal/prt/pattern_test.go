package prt

import (
	"testing"

	"repro/internal/ram"
	"repro/internal/sim"
)

// TestEq1AccessPattern pins the exact memory access sequence of the
// paper's Eq. 1 sub-iteration {r_i, r_{i+1}, w_{i+2}}: for every step
// the two reads hit the two predecessor cells (most recent first, per
// the recurrence evaluation order) followed by one write to the next
// cell.  This guards the "memory's own components" property — the
// operands must be READ from the array at every step, never cached.
func TestEq1AccessPattern(t *testing.T) {
	n := 8
	rec := sim.NewRecorder(ram.NewWOM(n, 4))
	cfg := PaperWOMConfig()
	MustRunIteration(cfg, rec)

	var want []sim.Op
	// Seed writes.
	want = append(want,
		sim.Op{Kind: ram.OpWrite, Addr: 0},
		sim.Op{Kind: ram.OpWrite, Addr: 1},
	)
	// Walk: read i-1, read i-2, write i.
	for i := 2; i < n; i++ {
		want = append(want,
			sim.Op{Kind: ram.OpRead, Addr: i - 1},
			sim.Op{Kind: ram.OpRead, Addr: i - 2},
			sim.Op{Kind: ram.OpWrite, Addr: i},
		)
	}
	// Fin observation.
	want = append(want,
		sim.Op{Kind: ram.OpRead, Addr: n - 2},
		sim.Op{Kind: ram.OpRead, Addr: n - 1},
	)

	ops := rec.Trace().Ops
	if len(ops) != len(want) {
		t.Fatalf("access count %d, want %d", len(ops), len(want))
	}
	for i, w := range want {
		if got := ops[i]; got.Kind != w.Kind || got.Addr != w.Addr {
			t.Fatalf("access %d = %s@%d, want %s@%d", i, got.Kind, got.Addr, w.Kind, w.Addr)
		}
	}
}

// TestRingAccessPatternWraps checks that ring mode re-writes the seed
// cells through the recurrence at the end of the walk.
func TestRingAccessPatternWraps(t *testing.T) {
	n := 6
	rec := sim.NewRecorder(ram.NewWOM(n, 4))
	cfg := PaperWOMConfig()
	cfg.Ring = true
	MustRunIteration(cfg, rec)
	// The wrap steps write addresses 0 and 1 again after address n-1.
	var writes []int
	for _, a := range rec.Trace().Ops {
		if a.Kind == ram.OpWrite {
			writes = append(writes, a.Addr)
		}
	}
	wantWrites := []int{0, 1, 2, 3, 4, 5, 0, 1}
	if len(writes) != len(wantWrites) {
		t.Fatalf("write sequence %v, want %v", writes, wantWrites)
	}
	for i := range wantWrites {
		if writes[i] != wantWrites[i] {
			t.Fatalf("write sequence %v, want %v", writes, wantWrites)
		}
	}
}

// TestCaptureAddsOnePreReadPerCell verifies the transparent capture
// cost model: exactly one extra read per written cell.
func TestCaptureAddsOnePreReadPerCell(t *testing.T) {
	n := 32
	plain := PaperWOMConfig()
	capture := plain
	capture.CaptureStale = true
	capture.StaleExpect = ExpectedFinalContents(plain, n)

	memA := ram.NewWOM(n, 4)
	a := MustRunIteration(plain, memA)
	memB := ram.NewWOM(n, 4)
	b := MustRunIteration(capture, memB)
	if b.Ops != a.Ops+uint64(n) {
		t.Errorf("capture ops = %d, want %d + %d", b.Ops, a.Ops, n)
	}
}
