package prt

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/ram"
)

// TestFig2DualPortCycles pins the paper's §4 complexity claim: the
// two-term dual-port scheme finishes a π-iteration in 2n cycles
// (2(n-2)+2 exactly), versus 3n single-port operations.
func TestFig2DualPortCycles(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		dp := ram.NewDualPort(n, 4)
		res, err := RunDualPort(PaperWOMConfig(), dp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected {
			t.Errorf("n=%d: fault-free detection", n)
		}
		want := uint64(2*(n-2) + 2)
		if res.Cycles != want {
			t.Errorf("n=%d: cycles = %d, want %d (≈2n)", n, res.Cycles, want)
		}
	}
}

// TestDualPortSameTDB: the dual-port walk leaves the same memory image
// as the single-port iteration.
func TestDualPortSameTDB(t *testing.T) {
	n := 64
	dp := ram.NewDualPort(n, 4)
	if _, err := RunDualPort(PaperWOMConfig(), dp); err != nil {
		t.Fatal(err)
	}
	sp := ram.NewWOM(n, 4)
	MustRunIteration(PaperWOMConfig(), sp)
	if !ram.Equal(dp.Backing(), sp) {
		t.Error("dual-port TDB differs from single-port TDB")
	}
}

// TestDualPortWorksOnQuadPort: the Fig. 2 scheme runs unchanged on a
// memory with more than two ports (the "QuadPort DSE family").
func TestDualPortWorksOnQuadPort(t *testing.T) {
	qp := ram.NewMultiPort(32, 4, 4)
	res, err := RunDualPort(PaperWOMConfig(), qp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Error("fault-free detection on quad port")
	}
}

// TestDualPortDetectsInjectedFaults: faults injected into the backing
// array are caught by the dual-port 3-iteration scheme exactly like in
// the single-port case.
func TestDualPortDetectsInjectedFaults(t *testing.T) {
	n := 32
	g := PaperWOMConfig().Gen
	for _, f := range []fault.Fault{
		fault.SAF{Cell: 7, Bit: 0, Value: 1},
		fault.SAF{Cell: 0, Bit: 3, Value: 0},
		fault.TF{Cell: 12, Bit: 1, Up: true},
		fault.TF{Cell: 30, Bit: 2, Up: false},
		// Note: AFalias and AFmulti escape the pure-signature dual-port
		// pipeline — their misrouted writes stay consistent with the
		// walk's own reads, so no automaton value is ever wrong.  The
		// single-port verify/capture passes catch them (see E4);
		// AFnone below is signature-visible because its reads float.
		fault.AF{Kind: fault.AFNone, Addr: 4},
	} {
		faulty := ram.NewMultiPortOn(f.Inject(ram.NewWOM(n, 4)), 2)
		det, _, err := DualPortScheme3(g, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			t.Errorf("dual-port scheme missed %v", f)
		}
	}
	// Clean run must pass.
	clean := ram.NewDualPort(n, 4)
	det, cycles, err := DualPortScheme3(g, clean)
	if err != nil {
		t.Fatal(err)
	}
	if det {
		t.Error("clean dual-port scheme detected")
	}
	wantCycles := 3 * uint64(2*(n-2)+2)
	if cycles != wantCycles {
		t.Errorf("scheme cycles = %d, want %d", cycles, wantCycles)
	}
}

func TestDualPortErrors(t *testing.T) {
	dp := ram.NewDualPort(16, 4)
	// Width mismatch: a GF(2) generator on a 4-bit memory.
	bad := PaperBOMConfig()
	if _, err := RunDualPort(bad, dp); err == nil {
		t.Error("width mismatch accepted")
	}
	// k != 2 is rejected (Fig. 2 is the two-term scheme).
	f4 := gf.NewField(4)
	g3 := lfsr.MustGenPoly(f4, []gf.Elem{1, 2, 0, 1})
	bad3 := Config{Gen: g3, Seed: []gf.Elem{1, 0, 1}}
	if _, err := RunDualPort(bad3, dp); err == nil {
		t.Error("k=3 accepted by the Fig.2 scheme")
	}
	// Single-port memory is rejected.
	sp := ram.NewMultiPort(16, 4, 1)
	if _, err := RunDualPort(PaperWOMConfig(), sp); err == nil {
		t.Error("single-port memory accepted")
	}
}
