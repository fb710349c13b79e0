package fault

import (
	"testing"

	"repro/internal/march"
	"repro/internal/ram"
)

// specCases are well-formed specs and the faults they name.
var specCases = map[string]Fault{
	"saf0@3.1":          SAF{Cell: 3, Bit: 1, Value: 0},
	"saf1@17":           SAF{Cell: 17, Value: 1},
	"tfup@5.2":          TF{Cell: 5, Bit: 2, Up: true},
	"tfdown@9":          TF{Cell: 9, Up: false},
	"sof@12":            SOF{Cell: 12},
	"drf0@4.1/100":      DRF{Cell: 4, Bit: 1, Decay: 0, Delay: 100},
	"drf1@4/7":          DRF{Cell: 4, Decay: 1, Delay: 7},
	"afnone@8":          AF{Kind: AFNone, Addr: 8},
	"afalias@2:6":       AF{Kind: AFAlias, Addr: 2, Target: 6},
	"afmulti@2:6":       AF{Kind: AFMulti, Addr: 2, Target: 6},
	"cfin@1.0>2.0":      CFin{AggCell: 1, VicCell: 2, Up: true},
	"cfind@1>2":         CFin{AggCell: 1, VicCell: 2, Up: false},
	"cfid0@1>2":         CFid{AggCell: 1, VicCell: 2, Up: true, Value: 0},
	"cfid1@1.3>2.1":     CFid{AggCell: 1, AggBit: 3, VicCell: 2, VicBit: 1, Up: true, Value: 1},
	"cfst@1.0=1>2.0=0":  CFst{AggCell: 1, VicCell: 2, AggValue: 1, Value: 0},
	"bridge@1.0~2.0":    BF{CellA: 1, CellB: 2, And: false},
	"bridgeand@1.2~3.1": BF{CellA: 1, BitA: 2, CellB: 3, BitB: 1, And: true},
	" SAF1@2 ":          SAF{Cell: 2, Value: 1}, // case/space tolerant
}

// badSpecs are specs ParseSpec must refuse.
var badSpecs = []string{
	"", "saf0", "bogus@1", "saf0@x", "saf0@1.y", "saf0@-1",
	"drf0@1", "drf0@1/x", "afalias@1", "afalias@x:2", "afalias@1:y",
	"cfin@1", "cfst@1>2", "cfst@1.0=2>2.0=0", "bridge@1",
}

func TestParseSpecRoundTrips(t *testing.T) {
	for spec, want := range specCases {
		got, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSpec(%q) = %#v, want %#v", spec, got, want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range badSpecs {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) should fail", spec)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics and answers every spec with
// exactly one of a fault and an error, and a fault it accepts that
// fits an 8-cell 2-bit memory injects into one and survives a March
// C- run over the word's data backgrounds.
func FuzzParseSpec(f *testing.F) {
	for spec := range specCases {
		f.Add(spec)
	}
	for _, spec := range badSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		flt, err := ParseSpec(spec)
		if (flt == nil) == (err == nil) {
			t.Fatalf("ParseSpec(%q) = %v, %v: want exactly one of a fault and an error", spec, flt, err)
		}
		if err != nil || CheckGeometry(flt, 8, 2) != nil {
			return
		}
		march.RunBackgrounds(march.MarchCMinus(), flt.Inject(ram.NewWOM(8, 2)), march.DataBackgrounds(2))
	})
}

func TestMustParseSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseSpec did not panic")
		}
	}()
	MustParseSpec("nope")
}

func TestParsedSpecsAreInjectable(t *testing.T) {
	specs := []string{
		"saf0@3.1", "tfup@5.2", "sof@12", "drf1@4/7", "afalias@2:6",
		"cfin@1>2", "cfid1@1>2", "cfst@1.0=1>2.0=0", "bridge@1~2",
	}
	for _, s := range specs {
		f := MustParseSpec(s)
		mem := f.Inject(ram.NewWOM(16, 4))
		if mem.Size() != 16 || mem.Width() != 4 {
			t.Errorf("%s: wrapper geometry broken", s)
		}
	}
}

func TestCheckGeometry(t *testing.T) {
	const n, m = 16, 4
	edge := GridNeighbourhood(0, n, 4) // N and W cut off by the grid edge
	far := Neighbourhood{Base: 5, N: 1, E: 6, S: 16, W: 4}
	for _, tc := range []struct {
		f  Fault
		ok bool
	}{
		{SAF{Cell: 15, Bit: 3, Value: 1}, true},
		{SAF{Cell: 16, Bit: 0}, false},
		{SAF{Cell: -1, Bit: 0}, false},
		{SAF{Cell: 3, Bit: 4}, false},
		{SAF{Cell: 3, Bit: -1}, false},
		{TF{Cell: 2, Bit: 4, Up: true}, false},
		{SOF{Cell: 15}, true},
		{SOF{Cell: 99999}, false},
		{DRF{Cell: 4, Bit: 5, Delay: 7}, false},
		{AF{Kind: AFNone, Addr: 3, Target: 99999}, true}, // AFNone has no target
		{AF{Kind: AFAlias, Addr: 1, Target: 99999}, false},
		{AF{Kind: AFMulti, Addr: 16, Target: 1}, false},
		{CFin{AggCell: 1, VicCell: 2, VicBit: 3}, true},
		{CFin{AggCell: 1, VicCell: 16}, false},
		{CFid{AggCell: 1, AggBit: 4, VicCell: 2}, false},
		{CFst{AggCell: 1, VicCell: 2, VicBit: 7}, false},
		{BF{CellA: 0, BitA: 3, CellB: 15, BitB: 0}, true},
		{BF{CellA: 0, CellB: 15, BitB: 4}, false},
		{SNPSF{Nb: edge}, true},
		{SNPSF{Nb: far}, false},
		{ANPSF{Nb: GridNeighbourhood(5, n, 4)}, true},
		{ANPSF{Nb: far}, false},
	} {
		err := CheckGeometry(tc.f, n, m)
		if (err == nil) != tc.ok {
			t.Errorf("CheckGeometry(%v, %d, %d) = %v, want ok=%v", tc.f, n, m, err, tc.ok)
		}
	}
	if err := CheckGeometry(MustParseSpec("saf0@3.2"), 16, 1); err == nil {
		t.Error("a stuck-at on bit 2 of a bit-oriented memory was accepted")
	}
	if err := CheckGeometry(nil, n, m); err == nil {
		t.Error("a nil fault was accepted")
	}
}
