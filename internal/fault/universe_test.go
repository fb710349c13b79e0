package fault

import (
	"testing"

	"repro/internal/ram"
)

func TestSingleCellUniverseSize(t *testing.T) {
	u := SingleCellUniverse(16, 4)
	if len(u) != 4*16*4 {
		t.Fatalf("size = %d, want 256", len(u))
	}
	// Class split: half SAF, half TF.
	saf, tf := 0, 0
	for _, f := range u {
		switch f.Class() {
		case ClassSAF:
			saf++
		case ClassTF:
			tf++
		default:
			t.Fatalf("unexpected class %v", f.Class())
		}
	}
	if saf != tf || saf != 128 {
		t.Errorf("split = %d SAF / %d TF", saf, tf)
	}
}

func TestStuckOpenRetentionDecoderUniverses(t *testing.T) {
	if got := len(StuckOpenUniverse(10)); got != 10 {
		t.Errorf("SOF universe = %d", got)
	}
	if got := len(RetentionUniverse(4, 4, 100)); got != 32 {
		t.Errorf("DRF universe = %d", got)
	}
	if got := len(DecoderUniverse(8)); got != 24 {
		t.Errorf("AF universe = %d", got)
	}
}

func TestDecoderUniverseNeedsTwoCells(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecoderUniverse(1) did not panic")
		}
	}()
	DecoderUniverse(1)
}

func TestSamplePairsProperties(t *testing.T) {
	pairs := SamplePairs(32, 4, 50, 42)
	if len(pairs) != 50 {
		t.Fatalf("pair count = %d", len(pairs))
	}
	seen := map[CouplingPair]bool{}
	for _, p := range pairs {
		if p.AggCell == p.VicCell {
			t.Errorf("intra-cell pair sampled: %+v", p)
		}
		if p.AggCell < 0 || p.AggCell >= 32 || p.VicCell < 0 || p.VicCell >= 32 {
			t.Errorf("cell out of range: %+v", p)
		}
		if p.AggBit < 0 || p.AggBit >= 4 || p.VicBit < 0 || p.VicBit >= 4 {
			t.Errorf("bit out of range: %+v", p)
		}
		if seen[p] {
			t.Errorf("duplicate pair: %+v", p)
		}
		seen[p] = true
	}
}

func TestSamplePairsDeterministic(t *testing.T) {
	a := SamplePairs(32, 4, 20, 7)
	b := SamplePairs(32, 4, 20, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic for equal seeds")
		}
	}
	c := SamplePairs(32, 4, 20, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
}

func TestAdjacentPairs(t *testing.T) {
	pairs := AdjacentPairs(4)
	if len(pairs) != 6 {
		t.Fatalf("adjacent pairs = %d, want 6", len(pairs))
	}
	// Both directions for (0,1).
	if pairs[0].AggCell != 0 || pairs[0].VicCell != 1 || pairs[1].AggCell != 1 || pairs[1].VicCell != 0 {
		t.Errorf("direction coverage wrong: %+v", pairs[:2])
	}
}

func TestCouplingUniverseExpansion(t *testing.T) {
	u := CouplingUniverse([]CouplingPair{{AggCell: 0, VicCell: 1}})
	if len(u) != 12 {
		t.Fatalf("expansion = %d faults per pair, want 12", len(u))
	}
	byClass := map[Class]int{}
	for _, f := range u {
		byClass[f.Class()]++
	}
	if byClass[ClassCFin] != 2 || byClass[ClassCFid] != 4 || byClass[ClassCFst] != 4 || byClass[ClassBF] != 2 {
		t.Errorf("class split wrong: %v", byClass)
	}
}

func TestIntraWordUniverse(t *testing.T) {
	u := IntraWordUniverse(2, 4)
	// Per cell: 4*3 ordered pairs * 6 faults = 72; two cells = 144.
	if len(u) != 144 {
		t.Fatalf("intra-word universe = %d, want 144", len(u))
	}
	for _, f := range u {
		if f.Class() != ClassIWCF {
			t.Fatalf("non-IWCF fault in intra-word universe: %v", f)
		}
	}
}

func TestIntraWordNeedsWidth2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntraWordUniverse with m=1 did not panic")
		}
	}()
	IntraWordUniverse(4, 1)
}

func TestStandardUniverse(t *testing.T) {
	u := StandardUniverse(16, 4, 10, 1)
	if u.Len() == 0 {
		t.Fatal("empty standard universe")
	}
	classes := u.ByClass()
	for _, c := range []Class{ClassSAF, ClassTF, ClassSOF, ClassAF, ClassCFin, ClassCFid, ClassCFst, ClassBF, ClassIWCF} {
		if len(classes[c]) == 0 {
			t.Errorf("standard universe missing class %v", c)
		}
	}
	// All faults must be injectable into a suitable memory without
	// panicking and the wrapper must keep geometry.
	for _, f := range u.Faults[:50] {
		m := f.Inject(ram.NewWOM(16, 4))
		if m.Size() != 16 || m.Width() != 4 {
			t.Fatalf("injected wrapper changed geometry for %v", f)
		}
	}
}

func TestBOMStandardUniverseSkipsIntraWord(t *testing.T) {
	u := StandardUniverse(16, 1, 0, 1)
	if len(u.ByClass()[ClassIWCF]) != 0 {
		t.Error("BOM universe should have no intra-word faults")
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	r := newRNG(0) // zero seed must still work
	for i := 0; i < 1000; i++ {
		v := r.intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("intn(0) did not panic")
		}
	}()
	r.intn(0)
}

func TestEveryFaultIsDetectableBySomeSequence(t *testing.T) {
	// Sanity: each fault in a small universe must change observable
	// behaviour under SOME access sequence (write 0s, write 1s, read
	// back with interleaving).  This guards against injectors that are
	// accidentally transparent.
	n, m := 8, 2
	u := StandardUniverse(n, m, 4, 3)
	for _, f := range u.Faults {
		if f.Class() == ClassDRF {
			continue // needs idle time, exercised separately
		}
		if !observable(f, n, m) {
			t.Errorf("fault %v is not observable by the probe sequence", f)
		}
	}
}

// observable runs faulty and golden memories in lockstep through a
// probing sequence over several data backgrounds (uniform and
// checkerboard — coupling faults such as CFid<up;0> require the victim
// to hold the complement of the aggressor) and reports whether any
// read diverged.
func observable(f Fault, n, m int) bool {
	faulty := f.Inject(ram.NewWOM(n, m))
	golden := ram.NewWOM(n, m)
	mask := ram.Word(1)<<uint(m) - 1
	divergence := false

	write := func(a int, v ram.Word) {
		faulty.Write(a, v)
		golden.Write(a, v)
	}
	read := func(a int) {
		if faulty.Read(a) != golden.Read(a) {
			divergence = true
		}
	}
	// Background value for address a: uniform or checkerboard.
	backgrounds := []func(a int) ram.Word{
		func(int) ram.Word { return 0 },
		func(int) ram.Word { return mask },
		func(a int) ram.Word {
			if a&1 == 0 {
				return 0
			}
			return mask
		},
		func(a int) ram.Word {
			if a&1 == 0 {
				return mask
			}
			return 0
		},
		func(a int) ram.Word { return 0x5 & mask },
		func(a int) ram.Word { return 0xA & mask },
	}
	for _, bg := range backgrounds {
		for a := 0; a < n; a++ {
			write(a, bg(a))
		}
		for a := 0; a < n; a++ {
			read(a)
		}
		// Ascending read-invert-read.
		for a := 0; a < n; a++ {
			read(a)
			write(a, ^bg(a)&mask)
			read(a)
		}
		// Descending read-restore-read.
		for a := n - 1; a >= 0; a-- {
			read(a)
			write(a, bg(a))
			read(a)
		}
	}
	return divergence
}

// ByClass groups the universe's faults per class, preserving order.
func (u Universe) ByClass() map[Class][]Fault {
	out := make(map[Class][]Fault)
	for _, f := range u.Faults {
		out[f.Class()] = append(out[f.Class()], f)
	}
	return out
}
