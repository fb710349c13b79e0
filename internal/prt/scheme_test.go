package prt

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/ram"
)

func runCoverage(t *testing.T, s Scheme, faults []fault.Fault, mk func() ram.Memory) map[fault.Class][2]int {
	t.Helper()
	byClass := map[fault.Class][2]int{}
	for _, f := range faults {
		mem := f.Inject(mk())
		r, err := s.Run(mem)
		if err != nil {
			t.Fatalf("scheme failed on %v: %v", f, err)
		}
		c := byClass[f.Class()]
		c[1]++
		if r.Detected {
			c[0]++
		}
		byClass[f.Class()] = c
	}
	return byClass
}

func assertFull(t *testing.T, cov map[fault.Class][2]int, classes ...fault.Class) {
	t.Helper()
	for _, cl := range classes {
		c := cov[cl]
		if c[0] != c[1] {
			t.Errorf("%v coverage %d/%d, want 100%%", cl, c[0], c[1])
		}
	}
}

func ratio(c [2]int) float64 { return float64(c[0]) / float64(c[1]) }

// TestSchemeCleanMemoryNoFalsePositives: every scheme variant must pass
// on a fault-free memory of assorted sizes.
func TestSchemeCleanMemoryNoFalsePositives(t *testing.T) {
	for _, n := range []int{8, 33, 64, 257} {
		for _, s := range []Scheme{
			PaperBOMScheme3(), StandardScheme4(PaperBOMConfig().Gen),
			ExtendedScheme(PaperBOMConfig().Gen, 2),
			PaperBOMScheme3().SignatureOnly(),
		} {
			mem := ram.NewBOM(n)
			r, err := s.Run(mem)
			if err != nil {
				t.Fatalf("%s on n=%d: %v", s.Name, n, err)
			}
			if r.Detected {
				t.Errorf("%s false positive on clean BOM n=%d (it %d)", s.Name, n, r.DetectedAt)
			}
		}
		for _, s := range []Scheme{
			PaperWOMScheme3(), StandardScheme4(PaperWOMConfig().Gen),
			ExtendedScheme(PaperWOMConfig().Gen, 3),
		} {
			mem := ram.NewWOM(n, 4)
			r, err := s.Run(mem)
			if err != nil {
				t.Fatalf("%s on n=%d: %v", s.Name, n, err)
			}
			if r.Detected {
				t.Errorf("%s false positive on clean WOM n=%d (it %d)", s.Name, n, r.DetectedAt)
			}
		}
	}
}

// TestPaperClaimSingleCellCoverage reproduces the §3 claim for
// single-cell faults: all SAF are detected by 2 iterations and all TF
// by 3 (bit- and word-oriented alike).
func TestPaperClaimSingleCellCoverage(t *testing.T) {
	n := 64
	bomGen := PaperBOMConfig().Gen

	covB2 := runCoverage(t, StandardScheme4(bomGen).Truncate(2),
		fault.SingleCellUniverse(n, 1), func() ram.Memory { return ram.NewBOM(n) })
	assertFull(t, covB2, fault.ClassSAF)

	covB3 := runCoverage(t, PaperBOMScheme3(),
		fault.SingleCellUniverse(n, 1), func() ram.Memory { return ram.NewBOM(n) })
	assertFull(t, covB3, fault.ClassSAF, fault.ClassTF)

	covW3 := runCoverage(t, PaperWOMScheme3(),
		fault.SingleCellUniverse(n, 4), func() ram.Memory { return ram.NewWOM(n, 4) })
	assertFull(t, covW3, fault.ClassSAF, fault.ClassTF)
}

// TestPRT3FullClassCoverage pins the classes that PRT-3 covers
// completely on the standard universe: SAF, TF, AF, CFin and BF.
func TestPRT3FullClassCoverage(t *testing.T) {
	n := 48
	uni := fault.StandardUniverse(n, 4, 10, 5)
	cov := runCoverage(t, PaperWOMScheme3(), uni.Faults,
		func() ram.Memory { return ram.NewWOM(n, 4) })
	assertFull(t, cov, fault.ClassSAF, fault.ClassTF, fault.ClassAF,
		fault.ClassCFin, fault.ClassBF)
	// SOF is covered for word-oriented arrays at 3 iterations.
	assertFull(t, cov, fault.ClassSOF)
}

// TestCoverageMonotoneInIterations reproduces the shape of the §3
// claim: detection is monotone in the iteration count and the bulk of
// the universe needs at least 3 iterations (1 iteration is far from
// sufficient).
func TestCoverageMonotoneInIterations(t *testing.T) {
	n := 48
	uni := fault.StandardUniverse(n, 4, 10, 5)
	g := PaperWOMConfig().Gen
	var prev float64
	var at1, at3 float64
	for it := 1; it <= 4; it++ {
		cov := runCoverage(t, StandardScheme4(g).Truncate(it), uni.Faults,
			func() ram.Memory { return ram.NewWOM(n, 4) })
		det, tot := 0, 0
		for _, c := range cov {
			det += c[0]
			tot += c[1]
		}
		r := float64(det) / float64(tot)
		if r < prev {
			t.Errorf("coverage not monotone: %.3f after %.3f at it=%d", r, prev, it)
		}
		prev = r
		if it == 1 {
			at1 = r
		}
		if it == 3 {
			at3 = r
		}
	}
	if at1 > 0.5 {
		t.Errorf("one iteration already covers %.1f%% — expected far less", 100*at1)
	}
	if at3 < 0.7 {
		t.Errorf("three iterations cover only %.1f%%", 100*at3)
	}
}

// TestExtendedSchemeReaches100OnBOM: two phase blocks (8 iterations)
// detect the complete standard universe of a bit-oriented memory.
func TestExtendedSchemeReaches100OnBOM(t *testing.T) {
	n := 64
	uni := fault.StandardUniverse(n, 1, 20, 5)
	cov := runCoverage(t, ExtendedScheme(PaperBOMConfig().Gen, 2), uni.Faults,
		func() ram.Memory { return ram.NewBOM(n) })
	for cl, c := range cov {
		if c[0] != c[1] {
			t.Errorf("%v: %d/%d at 2 blocks", cl, c[0], c[1])
		}
	}
}

// TestExtendedSchemeWOMInterWord: four blocks cover every inter-word
// class of the word-oriented universe completely.
func TestExtendedSchemeWOMInterWord(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	n := 48
	uni := fault.StandardUniverse(n, 4, 10, 5)
	cov := runCoverage(t, ExtendedScheme(PaperWOMConfig().Gen, 4), uni.Faults,
		func() ram.Memory { return ram.NewWOM(n, 4) })
	assertFull(t, cov, fault.ClassSAF, fault.ClassTF, fault.ClassSOF,
		fault.ClassAF, fault.ClassCFin, fault.ClassCFid, fault.ClassCFst,
		fault.ClassBF)
	// Intra-word faults are the remaining gap (handled by the
	// bit-sliced random-lane scheme, see E9).
	if ratio(cov[fault.ClassIWCF]) < 0.9 {
		t.Errorf("IWCF coverage %.2f below 0.9", ratio(cov[fault.ClassIWCF]))
	}
}

// TestSignatureOnlyWeaker: the ablation — removing read-back and stale
// capture strictly reduces coverage of coupling faults.
func TestSignatureOnlyWeaker(t *testing.T) {
	n := 48
	pairs := fault.AdjacentPairs(n)
	uni := fault.CouplingUniverse(pairs)
	full := runCoverage(t, PaperWOMScheme3(), uni,
		func() ram.Memory { return ram.NewWOM(n, 4) })
	sig := runCoverage(t, PaperWOMScheme3().SignatureOnly(), uni,
		func() ram.Memory { return ram.NewWOM(n, 4) })
	fullDet, sigDet := 0, 0
	for cl := range full {
		fullDet += full[cl][0]
		sigDet += sig[cl][0]
	}
	if sigDet >= fullDet {
		t.Errorf("signature-only (%d) should detect fewer than full (%d)", sigDet, fullDet)
	}
}

func TestSchemeOpsPerCell(t *testing.T) {
	// PRT-3 with k=2: 3 iterations × (2 reads + 1 write + 1 capture +
	// 1 verify) = 15 ops per cell.
	if got := PaperWOMScheme3().OpsPerCell(); got != 15 {
		t.Errorf("PRT-3 ops/cell = %d, want 15", got)
	}
	if got := PaperWOMScheme3().SignatureOnly().OpsPerCell(); got != 9 {
		t.Errorf("PRT-3/sig ops/cell = %d, want 9 (the paper's 3n per iteration)", got)
	}
}

func TestSchemeTruncate(t *testing.T) {
	s := StandardScheme4(PaperWOMConfig().Gen)
	if len(s.Truncate(2).Iters) != 2 {
		t.Error("Truncate(2) wrong")
	}
	if len(s.Truncate(10).Iters) != 4 {
		t.Error("Truncate beyond length should clamp")
	}
}

func TestSchemeDetectedAt(t *testing.T) {
	n := 48
	f := fault.SAF{Cell: 10, Bit: 0, Value: 1}
	mem := f.Inject(ram.NewWOM(n, 4))
	r := PaperWOMScheme3().MustRun(mem)
	if !r.Detected || r.DetectedAt < 1 || r.DetectedAt > 3 {
		t.Errorf("DetectedAt = %d", r.DetectedAt)
	}
	if r.Ops == 0 || len(r.PerIteration) != 3 {
		t.Errorf("result bookkeeping wrong: %+v", r)
	}
}

func TestMirrorBadIndex(t *testing.T) {
	s := Scheme{Name: "bad", Iters: []Config{Mirrored(0, true)}}
	if _, err := s.Run(ram.NewWOM(16, 4)); err == nil {
		t.Error("self/forward mirror accepted")
	}
}

func TestMustRunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun did not panic")
		}
	}()
	Scheme{Name: "bad", Iters: []Config{{}}}.MustRun(ram.NewWOM(16, 4))
}

// TestMirrorConfigTDBIdentical: the mirror writes exactly the same
// value to every address as the source iteration, in reverse order.
func TestMirrorConfigTDBIdentical(t *testing.T) {
	n := 40
	for _, src := range []Config{
		PaperWOMConfig(),
		{Gen: PaperWOMConfig().Gen, Seed: []gf.Elem{1, 0xE}, Offset: 0xF, Trajectory: Descending},
		{Gen: PaperWOMConfig().Gen, Seed: []gf.Elem{5, 9}, Trajectory: Random, PermSeed: 11},
	} {
		mir, err := MirrorConfig(src, n)
		if err != nil {
			t.Fatal(err)
		}
		a := ram.NewWOM(n, 4)
		b := ram.NewWOM(n, 4)
		MustRunIteration(src, a)
		res := MustRunIteration(mir, b)
		if res.Detected {
			t.Errorf("mirror iteration detected on clean memory")
		}
		if !ram.Equal(a, b) {
			t.Errorf("mirror TDB differs from source TDB")
		}
		// And the orders are exact reverses.
		sa := src.Addresses(n)
		ma := mir.Addresses(n)
		for i := range sa {
			if sa[i] != ma[n-1-i] {
				t.Fatalf("mirror trajectory is not the reverse")
			}
		}
	}
}

func TestMirrorConfigErrors(t *testing.T) {
	if _, err := MirrorConfig(Config{MirrorOf: 1}, 16); err == nil {
		t.Error("mirroring a placeholder accepted")
	}
	ring := PaperWOMConfig()
	ring.Ring = true
	if _, err := MirrorConfig(ring, 16); err == nil {
		t.Error("mirroring a ring iteration accepted")
	}
	if _, err := MirrorConfig(Config{}, 16); err == nil {
		t.Error("mirroring an invalid config accepted")
	}
}

func TestMirrorConfigGF2(t *testing.T) {
	n := 32
	src := PaperBOMConfig()
	mir, err := MirrorConfig(src, n)
	if err != nil {
		t.Fatal(err)
	}
	a := ram.NewBOM(n)
	b := ram.NewBOM(n)
	MustRunIteration(src, a)
	MustRunIteration(mir, b)
	if !ram.Equal(a, b) {
		t.Errorf("GF(2) mirror TDB differs")
	}
}

// MustRun is Run but panics on configuration errors.
func (s Scheme) MustRun(mem ram.Memory) SchemeResult {
	r, err := s.Run(mem)
	if err != nil {
		panic(err)
	}
	return r
}
