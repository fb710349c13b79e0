package march

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/ram"
)

func TestLibraryComplexities(t *testing.T) {
	want := map[string]int{
		"MATS": 4, "MATS+": 5, "MATS++": 6,
		"March X": 6, "March Y": 8, "March C-": 10,
		"March U": 13, "March LR": 14, "March A": 15, "March B": 17,
		"March SS": 22, "March LA": 22,
	}
	for _, test := range Library() {
		if got := test.OpsPerCell(); got != want[test.Name] {
			t.Errorf("%s: %dn, want %dn", test.Name, got, want[test.Name])
		}
		if err := test.Validate(); err != nil {
			t.Errorf("%s invalid: %v", test.Name, err)
		}
	}
}

func TestRunCleanMemoryPasses(t *testing.T) {
	for _, test := range Library() {
		for _, mem := range []ram.Memory{ram.NewBOM(64), ram.NewWOM(32, 4)} {
			res := Run(test, mem, 0)
			if res.Detected {
				t.Errorf("%s false positive on clean memory: %v", test.Name, res.First)
			}
			wantOps := uint64(test.OpsPerCell() * mem.Size())
			if res.Ops != wantOps {
				t.Errorf("%s ops = %d, want %d", test.Name, res.Ops, wantOps)
			}
		}
	}
}

func TestMATSDetectsAllSAF(t *testing.T) {
	n := 32
	for _, f := range fault.SingleCellUniverse(n, 1) {
		if f.Class() != fault.ClassSAF {
			continue
		}
		mem := f.Inject(ram.NewBOM(n))
		if !Run(MATS(), mem, 0).Detected {
			t.Errorf("MATS missed %v", f)
		}
	}
}

func TestMATSPlusPlusDetectsAllTF(t *testing.T) {
	n := 32
	for _, f := range fault.SingleCellUniverse(n, 1) {
		mem := f.Inject(ram.NewBOM(n))
		if !Run(MATSPlusPlus(), mem, 0).Detected {
			t.Errorf("MATS++ missed %v", f)
		}
	}
}

func TestMarchCMinusDetectsCoupling(t *testing.T) {
	n := 16
	pairs := fault.AdjacentPairs(n)
	for _, f := range fault.CouplingUniverse(pairs) {
		// March C- covers CFin, CFid, CFst (not BF-AND/OR in all
		// polarities between arbitrary bits, but for bit0-bit0 adjacent
		// pairs it detects the state-observable ones).
		switch f.Class() {
		case fault.ClassCFin, fault.ClassCFid, fault.ClassCFst:
			mem := f.Inject(ram.NewBOM(n))
			if !Run(MarchCMinus(), mem, 0).Detected {
				t.Errorf("March C- missed %v", f)
			}
		}
	}
}

func TestMarchCMinusDetectsDecoderFaults(t *testing.T) {
	n := 16
	for _, f := range fault.DecoderUniverse(n) {
		mem := f.Inject(ram.NewBOM(n))
		if !Run(MarchCMinus(), mem, 0).Detected {
			t.Errorf("March C- missed %v", f)
		}
	}
}

func TestMATSMissesSomeTF(t *testing.T) {
	// MATS cannot see TF↓ faults (it never exercises a 1→0 transition
	// followed by a read) — this asserts our executor is not
	// over-detecting.
	n := 8
	missed := 0
	for _, f := range fault.SingleCellUniverse(n, 1) {
		if tf, ok := f.(fault.TF); ok && !tf.Up {
			mem := f.Inject(ram.NewBOM(n))
			if !Run(MATS(), mem, 0).Detected {
				missed++
			}
		}
	}
	if missed != n {
		t.Errorf("MATS should miss all %d TF↓ faults, missed %d", n, missed)
	}
}

func TestMismatchDetails(t *testing.T) {
	f := fault.SAF{Cell: 5, Bit: 0, Value: 1}
	mem := f.Inject(ram.NewBOM(16))
	res := Run(MATS(), mem, 0)
	if !res.Detected || res.First == nil {
		t.Fatal("SAF1 not detected")
	}
	if res.First.Addr != 5 || res.First.Got != 1 || res.First.Expected != 0 {
		t.Errorf("mismatch details wrong: %v", res.First)
	}
	if res.First.String() == "" {
		t.Error("mismatch should render")
	}
}

func TestWOMBackgroundsDetectIntraWord(t *testing.T) {
	n, m := 8, 4
	bgs := DataBackgrounds(m)
	detected, total := 0, 0
	for _, f := range fault.IntraWordUniverse(n, m) {
		total++
		mem := f.Inject(ram.NewWOM(n, m))
		if RunBackgrounds(MarchCMinus(), mem, bgs).Detected {
			detected++
		}
	}
	// The standard background set distinguishes every bit pair, so
	// March C- over all backgrounds must catch every intra-word CF.
	if detected != total {
		t.Errorf("March C- x backgrounds: %d/%d intra-word faults", detected, total)
	}
}

func TestSingleBackgroundMissesIntraWord(t *testing.T) {
	// With only the all-zero background, aggressor and victim bits
	// always carry identical data, so idempotent intra-word faults that
	// force the shared value slip through — the motivation for multiple
	// backgrounds (and for the paper's random trajectories).
	n, m := 8, 4
	missed := 0
	for _, f := range fault.IntraWordUniverse(n, m) {
		mem := f.Inject(ram.NewWOM(n, m))
		if !Run(MarchCMinus(), mem, 0).Detected {
			missed++
		}
	}
	if missed == 0 {
		t.Error("single background unexpectedly caught every intra-word fault")
	}
}

func TestDataBackgrounds(t *testing.T) {
	bgs := DataBackgrounds(4)
	want := []ram.Word{0b0000, 0b1010, 0b1100}
	if len(bgs) != len(want) {
		t.Fatalf("backgrounds = %v", bgs)
	}
	for i := range want {
		if bgs[i] != want[i] {
			t.Errorf("backgrounds[%d] = %04b, want %04b", i, bgs[i], want[i])
		}
	}
	if got := len(DataBackgrounds(8)); got != 4 {
		t.Errorf("m=8 background count = %d, want 4", got)
	}
	if got := len(DataBackgrounds(1)); got != 1 {
		t.Errorf("m=1 background count = %d, want 1", got)
	}
}

func TestRunChecksReads(t *testing.T) {
	// An inconsistent algorithm (reads a background it never wrote)
	// must panic loudly rather than silently mis-detect.
	bad := Test{Name: "bad", Elems: []Element{
		{Any, []Op{W(0)}},
		{Any, []Op{R(1)}},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("inconsistent March test did not panic")
		}
	}()
	Run(bad, ram.NewBOM(4), 0)
}

func TestValidate(t *testing.T) {
	if err := (Test{Name: "empty"}).Validate(); err == nil {
		t.Error("empty test validated")
	}
	if err := (Test{Name: "e", Elems: []Element{{Any, nil}}}).Validate(); err == nil {
		t.Error("empty element validated")
	}
	if err := (Test{Name: "d", Elems: []Element{{Any, []Op{{false, 2}}}}}).Validate(); err == nil {
		t.Error("bad data validated")
	}
	// Every cell sees the elements' ops in order, so a read that
	// contradicts the previous write is refused statically, whatever the
	// addressing order; a read before any write is not.
	if err := (Test{Name: "r", Elems: []Element{{Any, []Op{W(0)}}, {Down, []Op{R(0), W(1), R(0)}}}}).Validate(); err == nil {
		t.Error("read contradicting the previous write validated")
	}
	if err := (Test{Name: "ok", Elems: []Element{{Up, []Op{R(1), W(0)}}, {Down, []Op{R(0), W(1), R(1)}}}}).Validate(); err != nil {
		t.Errorf("consistent test refused: %v", err)
	}
	for _, lt := range Library() {
		if err := lt.Validate(); err != nil {
			t.Errorf("library test refused: %v", err)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("March C-"); !ok {
		t.Error("March C- not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("bogus name found")
	}
}

func TestStringNotation(t *testing.T) {
	got := MATSPlus().String()
	want := "{c(w0);⇑(r0,w1);⇓(r1,w0)}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, test := range Library() {
		parsed, err := Parse(test.Name, test.String())
		if err != nil {
			t.Errorf("Parse(%s) failed: %v", test.Name, err)
			continue
		}
		if parsed.String() != test.String() {
			t.Errorf("round trip %s: %q != %q", test.Name, parsed.String(), test.String())
		}
	}
}

func TestParseASCII(t *testing.T) {
	got := MustParse("a", "{c(w0); up(r0,w1); down(r1,w0)}")
	if got.String() != MATSPlus().String() {
		t.Errorf("ASCII parse = %q", got.String())
	}
	// Braces optional.
	got2 := MustParse("b", "c(w0);u(r0,w1);d(r1,w0)")
	if got2.String() != MATSPlus().String() {
		t.Errorf("brace-free parse = %q", got2.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"", "{}", "{c}", "{c()}", "{q(w0)}", "{c(x0)}", "{c(w2)}", "{c(w)}", "{c(w0,)}",
	} {
		if _, err := Parse("bad", s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("bad", "{c(")
}

func TestRunContinuesAfterFirstMismatch(t *testing.T) {
	f := fault.SAF{Cell: 0, Bit: 0, Value: 1}
	mem := f.Inject(ram.NewBOM(8))
	res := Run(MATS(), mem, 0)
	// Full op count even though the first read already failed.
	if res.Ops != uint64(MATS().OpsPerCell()*8) {
		t.Errorf("run aborted early: %d ops", res.Ops)
	}
}

// MustParse is Parse but panics on error.
func MustParse(name, s string) Test {
	t, err := Parse(name, s)
	if err != nil {
		panic(err)
	}
	return t
}
