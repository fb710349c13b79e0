package repro

// Cross-module integration tests: each exercises a full pipeline that
// no single package covers on its own.

import (
	"testing"

	"repro/internal/bist"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/march"
	"repro/internal/markov"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/xorsynth"
)

// TestPipelineSynthesisToController verifies the complete hardware
// story: the multiplier netlists synthesised for the automaton's taps
// compute exactly the products the controller FSM uses, and the FSM
// reproduces the reference executor on the same faulty memory.
func TestPipelineSynthesisToController(t *testing.T) {
	cfg := prt.PaperWOMConfig()
	f := cfg.Gen.Field

	// 1. Synthesise the tap multipliers and check them against the
	// field on all inputs.
	for _, a := range cfg.Gen.Taps() {
		nl := xorsynth.CSE(f.ConstMulMatrix(a))
		for x := gf.Elem(0); x <= f.Mask(); x++ {
			if gf.Elem(nl.Eval(uint32(x))) != f.Mul(a, x) {
				t.Fatalf("netlist for tap %x disagrees with field at %x", a, x)
			}
		}
	}

	// 2. Budget the engine and sanity-check the scale.
	budget, err := bist.ForPRT(bist.Params{N: 256, M: 4, Gen: cfg.Gen, Ports: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if budget.XORs == 0 {
		t.Fatal("no XOR gates budgeted")
	}

	// 3. Drive a faulty memory through the FSM and through the
	// reference executor; both must detect and leave identical state.
	mkFaulty := func() ram.Memory {
		return fault.SAF{Cell: 97, Bit: 3, Value: 1}.Inject(ram.NewWOM(256, 4))
	}
	memA := mkFaulty()
	ctl, err := bist.NewController(cfg, memA)
	if err != nil {
		t.Fatal(err)
	}
	fsmPass := ctl.Run()

	memB := mkFaulty()
	ref := prt.MustRunIteration(cfg, memB)
	if fsmPass != !ref.SignatureMiss {
		t.Errorf("FSM pass=%v, reference signature ok=%v", fsmPass, !ref.SignatureMiss)
	}
	if !ram.Equal(memA, memB) {
		t.Error("FSM and reference left different memory images")
	}
}

// TestPipelineDetectDiagnoseRepair runs the full field flow: a fault
// is detected by the production scheme, localised by the diagnosis
// pass, "repaired" by remapping the cell, and the memory then passes.
func TestPipelineDetectDiagnoseRepair(t *testing.T) {
	n := 96
	defectCell := 41
	mkBroken := func() ram.Memory {
		return fault.SAF{Cell: defectCell, Bit: 1, Value: 0}.Inject(ram.NewWOM(n, 4))
	}

	// Detect.
	pass, err := SelfTest(mkBroken())
	if err != nil {
		t.Fatal(err)
	}
	if pass {
		t.Fatal("defect not detected")
	}

	// Diagnose.
	diag, err := prt.DiagnoseCells(prt.PaperWOMScheme3(), mkBroken())
	if err != nil {
		t.Fatal(err)
	}
	suspect := diag.PrimarySuspect()
	if suspect == nil || suspect.Addr != defectCell {
		t.Fatalf("diagnosis pointed at %v, defect is %d", suspect, defectCell)
	}

	// Repair: remap the bad cell onto a spare (simulated with an
	// address-translation wrapper) and retest.
	repaired := remap{Memory: mkBroken(), from: suspect.Addr, spare: ram.NewWOM(1, 4)}
	pass, err = SelfTest(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if !pass {
		t.Error("repaired memory still fails")
	}
}

// remap redirects one address to a spare cell — a minimal redundancy
// model for the repair test.
type remap struct {
	ram.Memory
	from  int
	spare *ram.WOM
}

func (r remap) Read(addr int) ram.Word {
	if addr == r.from {
		return r.spare.Read(0)
	}
	return r.Memory.Read(addr)
}

func (r remap) Write(addr int, v ram.Word) {
	if addr == r.from {
		r.spare.Write(0, v)
		return
	}
	r.Memory.Write(addr, v)
}

// TestMarkovPredictsCampaign cross-validates the analytic model
// against simulation: for always-excited single-bit storage faults the
// measured per-iteration detection of the signature-only scheme must
// be at least the chain's prediction minus sampling slack.
func TestMarkovPredictsCampaign(t *testing.T) {
	n := 64
	gen := prt.PaperWOMConfig().Gen
	// SAF universe excited in iteration 2 by construction (complement
	// TDB): run the 2-iteration signature-only scheme; every fault is
	// excited at least once, so detection should be ≈ 1 - alias.
	u := fault.Universe{Name: "saf", Faults: fault.SingleCellUniverse(n, 4)}
	res := coverage.Campaign(
		coverage.PRTRunner(prt.StandardScheme4(gen).Truncate(2).SignatureOnly()),
		u, func() ram.Memory { return ram.NewWOM(n, 4) }, 0)
	saf := res.ByClass[fault.ClassSAF]
	model := markov.PRTModel{M: 4, K: 2, PExcite: 1}
	predicted, err := model.DetectionProbability(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := saf.Ratio(); got < predicted-0.05 {
		t.Errorf("measured SAF detection %.4f below Markov prediction %.4f", got, predicted)
	}
}

// TestBerlekampMasseyClosesTheLoop: the TDB written by the memory walk
// (not the model!) synthesises back to the configured generator.
func TestBerlekampMasseyClosesTheLoop(t *testing.T) {
	cfg := prt.PaperWOMConfig()
	mem := ram.NewWOM(80, 4)
	prt.MustRunIteration(cfg, mem)
	seq := make([]gf.Elem, 80)
	for i := range seq {
		seq[i] = gf.Elem(mem.Read(i))
	}
	rec, l, err := lfsr.BerlekampMassey(cfg.Gen.Field, seq)
	if err != nil {
		t.Fatal(err)
	}
	if l != 2 || rec.Coeffs[1] != 2 || rec.Coeffs[2] != 2 {
		t.Errorf("recovered %v (L=%d), want the paper generator", rec, l)
	}
}

// TestMarchAndPRTAgreeOnCleanliness: across random geometries, both
// families must agree that an uninjected memory is clean.
func TestMarchAndPRTAgreeOnCleanliness(t *testing.T) {
	for _, n := range []int{17, 32, 63, 128} {
		for _, m := range []int{1, 4, 8} {
			var mem ram.Memory
			if m == 1 {
				mem = ram.NewBOM(n)
			} else {
				mem = ram.NewWOM(n, m)
			}
			mr := march.RunBackgrounds(march.MarchCMinus(), mem, march.DataBackgrounds(m))
			if mr.Detected {
				t.Errorf("March C- false positive at n=%d m=%d", n, m)
			}
			pass, err := SelfTest(mem)
			if err != nil {
				t.Fatal(err)
			}
			if !pass {
				t.Errorf("PRT false positive at n=%d m=%d", n, m)
			}
		}
	}
}
