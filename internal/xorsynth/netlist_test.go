package xorsynth

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gf"
)

func TestNaiveMatchesField(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		f := gf.NewField(m)
		for c := gf.Elem(0); c <= f.Mask(); c++ {
			nl := Naive(f.ConstMulMatrix(c))
			for x := gf.Elem(0); x <= f.Mask(); x++ {
				if got, want := gf.Elem(nl.Eval(uint32(x))), f.Mul(c, x); got != want {
					t.Fatalf("GF(2^%d) naive c=%x x=%x: got %x want %x", m, c, x, got, want)
				}
			}
			if m == 8 && c > 40 {
				break
			}
		}
	}
}

func TestCSEMatchesField(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		f := gf.NewField(m)
		for c := gf.Elem(0); c <= f.Mask(); c++ {
			nl := CSE(f.ConstMulMatrix(c))
			for x := gf.Elem(0); x <= f.Mask(); x++ {
				if got, want := gf.Elem(nl.Eval(uint32(x))), f.Mul(c, x); got != want {
					t.Fatalf("GF(2^%d) CSE c=%x x=%x: got %x want %x", m, c, x, got, want)
				}
			}
			if m == 8 && c > 40 {
				break
			}
		}
	}
}

func TestCSENeverWorseThanNaive(t *testing.T) {
	f := gf.NewField(8)
	for c := gf.Elem(1); c <= f.Mask(); c++ {
		m := f.ConstMulMatrix(c)
		if CSE(m).GateCount() > Naive(m).GateCount() {
			t.Errorf("CSE worse than naive for c=%x", c)
		}
	}
}

func TestCSESavesOnDenseMatrix(t *testing.T) {
	// A matrix whose rows share big supports must benefit from CSE.
	m := gf.NewBitMatrix(8)
	for i := range m.Rows {
		m.Rows[i] = 0xFF // every output is the parity of all inputs
	}
	naive := Naive(m)
	cse := CSE(m)
	if naive.GateCount() != 8*7 {
		t.Fatalf("naive gates = %d, want 56", naive.GateCount())
	}
	// Optimal is 7 (compute parity once, fan out); greedy CSE must get
	// close — certainly strictly better than half the naive count.
	if cse.GateCount() >= naive.GateCount()/2 {
		t.Errorf("CSE gates = %d, expected large saving over %d", cse.GateCount(), naive.GateCount())
	}
	if !cse.Matrix().Equal(m) {
		t.Errorf("CSE netlist does not realise the matrix")
	}
}

func TestIdentityNeedsNoGates(t *testing.T) {
	f := gf.NewField(4)
	nl := CSE(f.ConstMulMatrix(1))
	if nl.GateCount() != 0 {
		t.Errorf("multiplier by 1 uses %d gates, want 0", nl.GateCount())
	}
	if nl.Depth() != 0 {
		t.Errorf("multiplier by 1 depth = %d, want 0", nl.Depth())
	}
}

func TestZeroConstant(t *testing.T) {
	f := gf.NewField(4)
	for _, nl := range []*Netlist{Naive(f.ConstMulMatrix(0)), CSE(f.ConstMulMatrix(0))} {
		if nl.GateCount() != 0 {
			t.Errorf("multiplier by 0 uses gates")
		}
		for x := uint32(0); x < 16; x++ {
			if nl.Eval(x) != 0 {
				t.Errorf("multiplier by 0 output nonzero")
			}
		}
	}
}

func TestMatrixRecovery(t *testing.T) {
	f := gf.NewField(8)
	for _, c := range []gf.Elem{0x02, 0x1B, 0xFF, 0x80} {
		want := f.ConstMulMatrix(c)
		if !Naive(want).Matrix().Equal(want) {
			t.Errorf("naive Matrix() mismatch for c=%x", c)
		}
		if !CSE(want).Matrix().Equal(want) {
			t.Errorf("CSE Matrix() mismatch for c=%x", c)
		}
	}
}

func TestDepthConsistent(t *testing.T) {
	f := gf.NewField(8)
	nl := Naive(f.ConstMulMatrix(0xFF))
	if nl.Depth() < 1 {
		t.Errorf("dense multiplier depth = %d", nl.Depth())
	}
	// A pure-wire netlist has depth 0.
	id := Naive(f.ConstMulMatrix(1))
	if id.Depth() != 0 {
		t.Errorf("wire netlist depth = %d", id.Depth())
	}
}

func TestVerilogEmission(t *testing.T) {
	f := gf.NewField(4)
	v := ConstMultiplier(f, 2).Verilog("mul2")
	for _, want := range []string{"module mul2", "input [3:0] x", "output [3:0] y", "endmodule"} {
		if !strings.Contains(v, want) {
			t.Errorf("Verilog missing %q:\n%s", want, v)
		}
	}
	// x2 multiplier in GF(16)/0x13: y0=x3, y1=x0^x3, y2=x1, y3=x2.
	if !strings.Contains(v, "xor") {
		t.Errorf("Verilog for x2 should contain at least one xor (y1)")
	}
}

func TestSurveyField(t *testing.T) {
	f := gf.NewField(4)
	costs := SurveyField(f)
	if len(costs) != 15 {
		t.Fatalf("survey size = %d, want 15", len(costs))
	}
	for _, c := range costs {
		if c.CSEGates > c.NaiveGates {
			t.Errorf("c=%x: CSE %d > naive %d", c.Constant, c.CSEGates, c.NaiveGates)
		}
		if c.Saved() != c.NaiveGates-c.CSEGates {
			t.Errorf("Saved() inconsistent")
		}
	}
	// Multiplication by 1 must be gate-free.
	if costs[0].Constant != 1 || costs[0].CSEGates != 0 {
		t.Errorf("survey[0] should be the free multiplier by 1: %+v", costs[0])
	}
}

func TestConstMultiplierHelper(t *testing.T) {
	f := gf.NewField(4)
	nl := ConstMultiplier(f, 2) // the paper's coefficient a=2
	for x := gf.Elem(0); x < 16; x++ {
		if gf.Elem(nl.Eval(uint32(x))) != f.Mul(2, x) {
			t.Fatalf("ConstMultiplier(2) wrong at %x", x)
		}
	}
}

func TestQuickCSELinear(t *testing.T) {
	f := gf.NewField(8)
	nl := CSE(f.ConstMulMatrix(0xA7))
	prop := func(a, b uint32) bool {
		x, y := a&0xFF, b&0xFF
		return nl.Eval(x^y) == nl.Eval(x)^nl.Eval(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRandomMatrixSynthesis(t *testing.T) {
	// For arbitrary 6x6 GF(2) matrices, both strategies must realise
	// exactly the matrix they were given.
	prop := func(r0, r1, r2, r3, r4, r5 uint32) bool {
		m := gf.NewBitMatrix(6)
		rows := []uint32{r0, r1, r2, r3, r4, r5}
		for i := range m.Rows {
			m.Rows[i] = rows[i] & 0x3F
		}
		return Naive(m).Matrix().Equal(m) && CSE(m).Matrix().Equal(m)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// ConstMultiplier synthesises (with CSE) the network computing c*x in
// the field f.  The returned netlist has f.M() inputs and outputs.
func ConstMultiplier(f *gf.Field, c gf.Elem) *Netlist {
	return CSE(f.ConstMulMatrix(c))
}
