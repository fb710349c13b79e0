package prt

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/ram"
)

// TestFig1bWOMIteration reproduces the paper's Figure 1b: the π-test
// iteration writes the TDB 0,1,2,6,8,F,… into a word-oriented memory
// and the signature check passes on a fault-free array.
func TestFig1bWOMIteration(t *testing.T) {
	cfg := PaperWOMConfig()
	mem := ram.NewWOM(32, 4)
	res := MustRunIteration(cfg, mem)
	if res.Detected {
		t.Fatalf("fault-free iteration detected a fault: Fin=%v Fin*=%v", res.Fin, res.FinStar)
	}
	want := []gf.Elem{0, 1, 2, 6, 8, 0xF, 0xE, 2, 0xB, 1}
	for i, w := range want {
		if got := gf.Elem(mem.Read(i)); got != w {
			t.Errorf("cell %d = %X, want %X (Fig. 1b)", i, uint32(got), uint32(w))
		}
	}
}

// TestFig1aBOMIteration reproduces Figure 1a: the bit-oriented
// automaton g(x)=1+x+x² fills the array with the period-3 TDB.
func TestFig1aBOMIteration(t *testing.T) {
	cfg := PaperBOMConfig()
	mem := ram.NewBOM(16)
	res := MustRunIteration(cfg, mem)
	if res.Detected {
		t.Fatalf("fault-free BOM iteration detected a fault")
	}
	// Seed (1,1): TDB = 1,1,0 repeating.
	for i := 0; i < 16; i++ {
		want := ram.Word(1)
		if i%3 == 2 {
			want = 0
		}
		if mem.Read(i) != want {
			t.Errorf("cell %d = %d, want %d", i, mem.Read(i), want)
		}
	}
}

// TestRingClosure verifies the paper's pseudo-ring property: with the
// period-255 automaton, Fin == Init exactly when the step count is a
// multiple of 255.
func TestRingClosure(t *testing.T) {
	cfg := PaperWOMConfig()
	// Plain mode: n-k steps; closes for n = 255+2.
	mem := ram.NewWOM(257, 4)
	res := MustRunIteration(cfg, mem)
	if !res.RingClosed {
		t.Errorf("ring did not close for n=257 (n-k=255): Fin=%v", res.Fin)
	}
	if !RingCloses(cfg, 257) {
		t.Errorf("RingCloses(257) = false")
	}
	// A size off the period must not close.
	mem2 := ram.NewWOM(256, 4)
	res2 := MustRunIteration(cfg, mem2)
	if res2.RingClosed {
		t.Errorf("ring closed for n=256")
	}
	if RingCloses(cfg, 256) {
		t.Errorf("RingCloses(256) = true")
	}
	// Detection still passes in both cases (fault-free).
	if res.Detected || res2.Detected {
		t.Errorf("fault-free detection")
	}
}

// TestRingModeClosure: in wrap-around mode the automaton takes exactly
// n steps, so the closure condition is n ≡ 0 (mod 255) — the paper's
// "memory array size is multiple by the period of LFSR".
func TestRingModeClosure(t *testing.T) {
	cfg := PaperWOMConfig()
	cfg.Ring = true
	mem := ram.NewWOM(255, 4)
	res := MustRunIteration(cfg, mem)
	if res.Detected {
		t.Fatalf("fault-free ring iteration detected: Fin=%v Fin*=%v", res.Fin, res.FinStar)
	}
	if !res.RingClosed {
		t.Errorf("ring mode did not close for n=255")
	}
	if !RingCloses(cfg, 255) || RingCloses(cfg, 254) {
		t.Errorf("RingCloses predicate wrong in ring mode")
	}
}

// TestIterationOpsComplexity pins the paper's O(3n) claim: a plain
// signature iteration with k=2 costs 3 ops per cell up to O(k) edge
// terms.
func TestIterationOpsComplexity(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		cfg := PaperWOMConfig()
		mem := ram.NewWOM(n, 4)
		res := MustRunIteration(cfg, mem)
		// k seed writes + (n-k)(k reads + 1 write) + k Fin reads.
		want := uint64(2 + 3*(n-2) + 2)
		if res.Ops != want {
			t.Errorf("n=%d: ops = %d, want %d (≈3n)", n, res.Ops, want)
		}
	}
}

func TestVerifyCleanAndCorrupt(t *testing.T) {
	cfg := PaperWOMConfig()
	mem := ram.NewWOM(64, 4)
	MustRunIteration(cfg, mem)
	mm, ops, err := Verify(cfg, mem)
	if err != nil || mm != 0 {
		t.Fatalf("clean verify: %d mismatches, err %v", mm, err)
	}
	if ops != 64 {
		t.Errorf("verify ops = %d", ops)
	}
	// Corrupt one cell the signature cannot see (middle of the array).
	mem.Write(10, mem.Read(10)^1)
	mm, _, err = Verify(cfg, mem)
	if err != nil || mm != 1 {
		t.Errorf("corrupt verify: %d mismatches, err %v", mm, err)
	}
}

func TestVerifyInsideIteration(t *testing.T) {
	cfg := PaperWOMConfig()
	cfg.Verify = true
	mem := ram.NewWOM(64, 4)
	res := MustRunIteration(cfg, mem)
	if res.Detected || res.VerifyMismatches != 0 {
		t.Errorf("clean memory failed verify: %+v", res)
	}
	// Ops: 3n-2 + n verify reads.
	want := uint64(2+3*(64-2)+2) + 64
	if res.Ops != want {
		t.Errorf("ops with verify = %d, want %d", res.Ops, want)
	}
}

func TestCaptureStaleDetectsLeftoverCorruption(t *testing.T) {
	cfg := PaperWOMConfig()
	n := 64
	mem := ram.NewWOM(n, 4)
	MustRunIteration(cfg, mem)
	// Corrupt a mid-array cell after the iteration (as a coupling
	// victim would be).
	mem.Write(20, mem.Read(20)^0x3)
	// A second iteration without capture destroys the evidence...
	mem2 := ram.NewWOM(n, 4)
	MustRunIteration(cfg, mem2)
	mem2.Write(20, mem2.Read(20)^0x3)
	plain := cfg
	res := MustRunIteration(plain, mem2)
	if res.Detected {
		t.Fatalf("plain iteration unexpectedly saw the stale corruption")
	}
	// ...but a capture iteration observes it at the rewrite.
	capture := cfg
	capture.CaptureStale = true
	capture.StaleExpect = ExpectedFinalContents(cfg, n)
	res2 := MustRunIteration(capture, mem)
	if !res2.Detected || res2.StaleMismatches != 1 {
		t.Errorf("capture iteration missed stale corruption: %+v", res2)
	}
}

func TestExpectedFinalContents(t *testing.T) {
	cfg := PaperWOMConfig()
	n := 40
	mem := ram.NewWOM(n, 4)
	MustRunIteration(cfg, mem)
	want := ExpectedFinalContents(cfg, n)
	for a := 0; a < n; a++ {
		if gf.Elem(mem.Read(a)) != want[a] {
			t.Fatalf("predicted contents wrong at %d", a)
		}
	}
	// Descending iteration: prediction must be address-indexed.
	cfgD := cfg
	cfgD.Trajectory = Descending
	memD := ram.NewWOM(n, 4)
	MustRunIteration(cfgD, memD)
	wantD := ExpectedFinalContents(cfgD, n)
	for a := 0; a < n; a++ {
		if gf.Elem(memD.Read(a)) != wantD[a] {
			t.Fatalf("descending predicted contents wrong at %d", a)
		}
	}
}

func TestTrajectories(t *testing.T) {
	n := 32
	for _, tr := range []Trajectory{Ascending, Descending, Random, RandomReversed} {
		cfg := PaperWOMConfig()
		cfg.Trajectory = tr
		cfg.PermSeed = 7
		addr := cfg.Addresses(n)
		seen := make([]bool, n)
		for _, a := range addr {
			if a < 0 || a >= n || seen[a] {
				t.Fatalf("%v: bad permutation %v", tr, addr)
			}
			seen[a] = true
		}
		mem := ram.NewWOM(n, 4)
		res := MustRunIteration(cfg, mem)
		if res.Detected {
			t.Errorf("%v: fault-free detection", tr)
		}
	}
}

func TestRandomReversedIsReverse(t *testing.T) {
	a := Config{Trajectory: Random, PermSeed: 3}.Addresses(16)
	b := Config{Trajectory: RandomReversed, PermSeed: 3}.Addresses(16)
	for i := range a {
		if a[i] != b[len(b)-1-i] {
			t.Fatal("RandomReversed is not the exact reverse")
		}
	}
}

func TestRandomTrajectoryDeterministicPerSeed(t *testing.T) {
	a := Config{Trajectory: Random, PermSeed: 5}.Addresses(64)
	b := Config{Trajectory: Random, PermSeed: 5}.Addresses(64)
	c := Config{Trajectory: Random, PermSeed: 6}.Addresses(64)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different permutations")
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical permutations")
	}
}

func TestConfigValidation(t *testing.T) {
	good := PaperWOMConfig()
	if err := good.Validate(64, 4); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(c Config) Config
		n, w int
	}{
		{"width mismatch", func(c Config) Config { return c }, 64, 8},
		{"short seed", func(c Config) Config { c.Seed = c.Seed[:1]; return c }, 64, 4},
		{"seed out of field", func(c Config) Config { c.Seed = []gf.Elem{0x10, 0}; return c }, 64, 4},
		{"offset out of field", func(c Config) Config { c.Offset = 0x10; return c }, 64, 4},
		{"memory too small", func(c Config) Config { return c }, 2, 4},
		{"bad trajectory", func(c Config) Config { c.Trajectory = Trajectory(9); return c }, 64, 4},
		{"unresolved mirror", func(c Config) Config { c.MirrorOf = 1; return c }, 64, 4},
	}
	for _, c := range cases {
		cfg := c.mut(good)
		if err := cfg.Validate(c.n, c.w); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := (Config{}).Validate(64, 4); err == nil {
		t.Error("zero config accepted")
	}
}

func TestStringHelpers(t *testing.T) {
	if Ascending.String() != "ascending" || Trajectory(9).String() == "" {
		t.Error("Trajectory strings wrong")
	}
	cfg := PaperWOMConfig()
	if cfg.String() == "" {
		t.Error("Config.String empty")
	}
	f := gf.NewField(4)
	if got := FormatState(f, []gf.Elem{0, 0xF}); got != "(0,F)" {
		t.Errorf("FormatState = %q", got)
	}
}

func TestExpectedSequenceMatchesPaper(t *testing.T) {
	seq := ExpectedSequence(PaperWOMConfig(), 6)
	want := []gf.Elem{0, 1, 2, 6, 8, 0xF}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence %v != Fig.1b prefix %v", seq, want)
		}
	}
}

// TestRingModeDetectsFaults: the wrap-around executor keeps the
// detection property (errors propagate around the ring into the
// re-written seed cells).
func TestRingModeDetectsFaults(t *testing.T) {
	cfg := PaperWOMConfig()
	cfg.Ring = true
	for _, f := range []fault.Fault{
		fault.SAF{Cell: 0, Bit: 0, Value: 0},
		fault.SAF{Cell: 100, Bit: 3, Value: 1},
		fault.SAF{Cell: 254, Bit: 1, Value: 1},
	} {
		mem := f.Inject(ram.NewWOM(255, 4))
		res := MustRunIteration(cfg, mem)
		// Single iterations miss unexcited stuck values; run the
		// complement as well before judging.
		if !res.Detected {
			comp := cfg
			comp.Offset = 0xF
			comp.Seed = []gf.Elem{cfg.Seed[0] ^ 0xF, cfg.Seed[1] ^ 0xF}
			res2 := MustRunIteration(comp, mem)
			if !res2.Detected {
				t.Errorf("ring iterations missed %v", f)
			}
		}
	}
}

// TestSchemeOnWideWords exercises the full scheme machinery on wider
// fields (m = 8 and m = 12) to guard against width-4 assumptions.
func TestSchemeOnWideWords(t *testing.T) {
	for _, m := range []int{8, 12} {
		f := gf.NewField(m)
		g := lfsr.MustGenPoly(f, []gf.Elem{1, 2, 2})
		s := StandardScheme4(g)
		mem := ram.NewWOM(70, m)
		res, err := s.Run(mem)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Detected {
			t.Errorf("m=%d: false positive", m)
		}
		// And a stuck fault is caught.
		bad := fault.SAF{Cell: 33, Bit: m - 1, Value: 1}.Inject(ram.NewWOM(70, m))
		res2, err := s.Run(bad)
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Detected {
			t.Errorf("m=%d: stuck MSB missed", m)
		}
	}
}

// TestRandomTrajectorySchemeDetects: schemes built on random
// trajectories (and their mirrored reversals) keep the detection
// property.
func TestRandomTrajectorySchemeDetects(t *testing.T) {
	g := PaperWOMConfig().Gen
	seed1 := []gf.Elem{1, 0}
	// Both TDB polarities are needed to excite arbitrary stuck values;
	// the complement runs on the same permutation, the mirror reverses
	// it.
	s := Scheme{Name: "PRT-rand", Iters: []Config{
		{Gen: g, Seed: seed1, Trajectory: Random, PermSeed: 3, Verify: true},
		{Gen: g, Seed: []gf.Elem{1 ^ 0xF, 0 ^ 0xF}, Offset: 0xF,
			Trajectory: Random, PermSeed: 3, Verify: true},
		Mirrored(0, true),
	}}
	clean := ram.NewWOM(64, 4)
	res, err := s.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatal("random-trajectory scheme false positive")
	}
	bad := fault.SAF{Cell: 20, Bit: 1, Value: 1}.Inject(ram.NewWOM(64, 4))
	res2, err := s.Run(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Detected {
		t.Error("random-trajectory scheme missed a stuck cell")
	}
}

// Verify performs a standalone full-readback check of a memory that
// has just completed a plain (non-ring) iteration, returning the
// number of mismatching cells.  Equivalent to running with
// Config.Verify set, split out so a test can corrupt a cell between
// the two phases.
func Verify(cfg Config, mem ram.Memory) (mismatches int, ops uint64, err error) {
	if err := cfg.Validate(mem.Size(), mem.Width()); err != nil {
		return 0, 0, err
	}
	n := mem.Size()
	steps := n
	if cfg.Ring {
		steps = n + cfg.Gen.K()
	}
	mm, o := verifyPass(cfg, mem, cfg.Addresses(n), steps)
	return mm, o, nil
}
