package bist

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/lfsr"
	"repro/internal/prt"
	"repro/internal/ram"
)

func paperParams(n int) Params {
	return Params{N: n, M: 4, Gen: lfsr.PaperGenPoly(), Ports: 1, Iterations: 3}
}

func TestBudgetSanity(t *testing.T) {
	b, err := ForPRT(paperParams(1 << 10))
	if err != nil {
		t.Fatal(err)
	}
	if b.FFs <= 0 || b.XORs <= 0 || b.Gates <= 0 || b.ROMBits <= 0 {
		t.Errorf("budget has empty categories: %v", b)
	}
	ge := b.GateEquivalents(DefaultGateModel())
	// A k=2, m=4 engine is a few hundred gate equivalents.
	if ge < 50 || ge > 2000 {
		t.Errorf("gate equivalents %d-cell = %.0f, outside plausibility window", 1<<10, ge)
	}
}

func TestBudgetGrowsLogarithmically(t *testing.T) {
	small, _ := ForPRT(paperParams(1 << 10))
	big, _ := ForPRT(paperParams(1 << 28))
	gm := DefaultGateModel()
	// 18 extra address bits cost well under 3x the logic.
	if big.GateEquivalents(gm) > 3*small.GateEquivalents(gm) {
		t.Errorf("budget grows too fast: %.0f -> %.0f",
			small.GateEquivalents(gm), big.GateEquivalents(gm))
	}
}

// TestPaperOverheadClaim reproduces §4: the overhead ratio drops below
// 2^-20 once the array is large enough, and keeps shrinking with
// capacity.
func TestPaperOverheadClaim(t *testing.T) {
	gm := DefaultGateModel()
	var prev float64 = math.Inf(1)
	crossed := false
	for _, logN := range []int{10, 14, 18, 22, 26, 28, 30} {
		n := 1 << uint(logN)
		b, err := ForPRT(paperParams(n))
		if err != nil {
			t.Fatal(err)
		}
		r := OverheadRatio(b, n, 4, gm)
		if r >= prev {
			t.Errorf("overhead ratio not shrinking at n=2^%d: %g >= %g", logN, r, prev)
		}
		prev = r
		if r < math.Pow(2, -20) {
			crossed = true
		}
	}
	if !crossed {
		t.Errorf("overhead never crossed 2^-20 (last ratio %g)", prev)
	}
	// And Log2Ratio agrees.
	n := 1 << 30
	b, _ := ForPRT(paperParams(n))
	if Log2Ratio(b, n, 4, gm) >= -20 {
		t.Errorf("log2 ratio at 2^30 cells = %.1f, want < -20", Log2Ratio(b, n, 4, gm))
	}
}

func TestDualPortBudgetDelta(t *testing.T) {
	p1 := paperParams(1 << 20)
	p2 := p1
	p2.Ports = 2
	b1, _ := ForPRT(p1)
	b2, _ := ForPRT(p2)
	gm := DefaultGateModel()
	// The second port adds increment logic but removes an operand
	// latch; the budgets must stay within 2x of each other.
	r := b2.GateEquivalents(gm) / b1.GateEquivalents(gm)
	if r > 2 || r < 0.5 {
		t.Errorf("dual-port budget ratio %.2f implausible", r)
	}
}

func TestForPRTValidation(t *testing.T) {
	if _, err := ForPRT(Params{N: 1, M: 4, Gen: lfsr.PaperGenPoly(), Ports: 1}); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := ForPRT(Params{N: 64, M: 8, Gen: lfsr.PaperGenPoly(), Ports: 1}); err == nil {
		t.Error("field/width mismatch accepted")
	}
	if _, err := ForPRT(Params{N: 64, M: 4, Gen: lfsr.PaperGenPoly(), Ports: 0}); err == nil {
		t.Error("zero ports accepted")
	}
}

func TestBudgetString(t *testing.T) {
	b, _ := ForPRT(paperParams(256))
	if b.String() == "" {
		t.Error("empty budget string")
	}
}

// --- controller FSM ---

func TestControllerMatchesRunIteration(t *testing.T) {
	cfg := prt.PaperWOMConfig()
	n := 64
	memA := ram.NewWOM(n, 4)
	ctl, err := NewController(cfg, memA)
	if err != nil {
		t.Fatal(err)
	}
	if !ctl.Run() {
		t.Fatal("controller failed on clean memory")
	}
	memB := ram.NewWOM(n, 4)
	prt.MustRunIteration(cfg, memB)
	if !ram.Equal(memA, memB) {
		t.Error("controller TDB differs from reference executor")
	}
	// One memory op per cycle: k seeds + (n-k)(k+1) walk + k fin reads
	// + 1 compare.
	want := uint64(2 + (n-2)*3 + 2 + 1)
	if ctl.Cycles != want {
		t.Errorf("cycles = %d, want %d", ctl.Cycles, want)
	}
}

func TestControllerDetectsFault(t *testing.T) {
	cfg := prt.PaperWOMConfig()
	f := fault.SAF{Cell: 20, Bit: 0, Value: 1}
	mem := f.Inject(ram.NewWOM(64, 4))
	ctl, err := NewController(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Run() {
		t.Error("controller missed a stuck-at fault")
	}
	if !ctl.Failed() || ctl.State() != StateFail {
		t.Error("fail state not latched")
	}
	// Terminal states are absorbing.
	c0 := ctl.Cycles
	ctl.Step()
	if ctl.Cycles != c0 {
		t.Error("Step advanced after completion")
	}
}

func TestControllerRejectsExtendedModes(t *testing.T) {
	cfg := prt.PaperWOMConfig()
	cfg.Verify = true
	if _, err := NewController(cfg, ram.NewWOM(16, 4)); err == nil {
		t.Error("verify mode accepted")
	}
	cfg2 := prt.PaperWOMConfig()
	cfg2.Ring = true
	if _, err := NewController(cfg2, ram.NewWOM(16, 4)); err == nil {
		t.Error("ring mode accepted")
	}
	if _, err := NewController(prt.Config{}, ram.NewWOM(16, 4)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunAllScheme(t *testing.T) {
	s := prt.StandardScheme3(lfsr.PaperGenPoly())
	pass, cycles, err := RunAll(s, ram.NewWOM(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !pass {
		t.Error("clean memory failed")
	}
	if cycles == 0 {
		t.Error("no cycles counted")
	}
	// A stuck fault makes at least one iteration fail.
	f := fault.SAF{Cell: 5, Bit: 2, Value: 1}
	pass2, _, err := RunAll(s, f.Inject(ram.NewWOM(64, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if pass2 {
		t.Error("scheme missed a stuck-at fault")
	}
}

func TestStateString(t *testing.T) {
	for s := StateIdle; s <= StateFail; s++ {
		if s.String() == "" {
			t.Errorf("state %d has no name", int(s))
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should format")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// RunAll is RunAllCompressed with the plain controller, which compares
// the exact per-word final window.
func RunAll(s prt.Scheme, mem ram.Memory) (pass bool, cycles uint64, err error) {
	return runAll(s, mem, func(cfg prt.Config, _ int) (*Controller, error) {
		return NewController(cfg, mem)
	})
}

// TestMirrorRefusalIsOneError holds the three scheme executors to the
// resolver's refusal of a mirror placeholder that does not name an
// earlier iteration: each returns prt's Scheme.Resolve error, and none
// panics.
func TestMirrorRefusalIsOneError(t *testing.T) {
	const n = 16
	cfg := prt.PaperWOMConfig()
	schemes := []prt.Scheme{
		{Name: "self", Iters: []prt.Config{cfg, prt.Mirrored(1, true)}},
		{Name: "later", Iters: []prt.Config{prt.Mirrored(1, true), cfg}},
		{Name: "past-end", Iters: []prt.Config{cfg, prt.Mirrored(5, true)}},
	}
	executors := []struct {
		name string
		run  func(prt.Scheme, ram.Memory) error
	}{
		{"Scheme.Run", func(s prt.Scheme, mem ram.Memory) error {
			_, err := s.Run(mem)
			return err
		}},
		{"DiagnoseCells", func(s prt.Scheme, mem ram.Memory) error {
			_, err := prt.DiagnoseCells(s, mem)
			return err
		}},
		{"RunAllCompressed", func(s prt.Scheme, mem ram.Memory) error {
			_, _, err := RunAllCompressed(s, mem, 0)
			return err
		}},
	}
	for _, s := range schemes {
		_, want := s.Resolve(n)
		if want == nil {
			t.Fatalf("Resolve accepted scheme %q", s.Name)
		}
		for _, e := range executors {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on scheme %q panicked: %v", e.name, s.Name, r)
					}
				}()
				err := e.run(s, ram.NewWOM(n, 4))
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s on scheme %q: error %v, want %v", e.name, s.Name, err, want)
				}
			}()
		}
	}
}
