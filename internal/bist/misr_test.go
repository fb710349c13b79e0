package bist

import (
	"testing"
	"testing/quick"

	"repro/internal/gf"
	"repro/internal/prt"
	"repro/internal/ram"
)

func TestMISRDeterministic(t *testing.T) {
	f := gf.NewField(4)
	data := []gf.Elem{1, 2, 3, 4, 5, 0xF}
	s1, err := Predict(f, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := Predict(f, 0, data)
	if s1 != s2 {
		t.Error("MISR not deterministic")
	}
	m, _ := NewMISR(f, 0)
	m.FeedAll(data)
	if m.Signature() != s1 || m.Fed() != 6 {
		t.Error("register/Predict disagree")
	}
}

func TestMISRSingleErrorAlwaysDetected(t *testing.T) {
	// Any single wrong word in any position must change the signature.
	f := gf.NewField(4)
	base := make([]gf.Elem, 32)
	for i := range base {
		base[i] = gf.Elem(i*7%16) & 0xF
	}
	clean, _ := Predict(f, 0, base)
	for pos := range base {
		for e := gf.Elem(1); e < 16; e++ {
			dirty := append([]gf.Elem(nil), base...)
			dirty[pos] ^= e
			sig, _ := Predict(f, 0, dirty)
			if sig == clean {
				t.Fatalf("single error e=%x at %d aliased", e, pos)
			}
		}
	}
}

func TestMISRValidation(t *testing.T) {
	if _, err := NewMISR(nil, 0); err == nil {
		t.Error("nil field accepted")
	}
	f := gf.NewField(4)
	if _, err := NewMISR(f, 0x10); err == nil {
		t.Error("out-of-field alpha accepted")
	}
}

// TestMISRCompressesVerifyPass wires the MISR into a real π-test
// read-back: the compressed signature of the observed TDB must match
// the compressed prediction on a clean memory and differ under a
// fault.
func TestMISRCompressesVerifyPass(t *testing.T) {
	f := gf.NewField(4)
	cfg := prt.PaperWOMConfig()
	n := 64
	// Clean run.
	mem := ram.NewWOM(n, 4)
	prt.MustRunIteration(cfg, mem)
	observed := make([]gf.Elem, n)
	for i := 0; i < n; i++ {
		observed[i] = gf.Elem(mem.Read(i))
	}
	want := prt.ExpectedSequence(cfg, n)
	sObs, _ := Predict(f, 0, observed)
	sWant, _ := Predict(f, 0, want)
	if sObs != sWant {
		t.Fatal("clean MISR signatures differ")
	}
	// Single corrupted cell must break the signature.
	observed[20] ^= 1
	sBad, _ := Predict(f, 0, observed)
	if sBad == sWant {
		t.Error("corruption aliased in MISR")
	}
}

func TestQuickMISRLinear(t *testing.T) {
	f := gf.NewField(8)
	prop := func(a, b uint8, alphaRaw uint8) bool {
		alpha := gf.Elem(alphaRaw) & f.Mask()
		if alpha == 0 {
			alpha = f.Generator()
		}
		s1, err := Predict(f, alpha, []gf.Elem{gf.Elem(a)})
		if err != nil {
			return false
		}
		s2, _ := Predict(f, alpha, []gf.Elem{gf.Elem(b)})
		s12, _ := Predict(f, alpha, []gf.Elem{gf.Elem(a) ^ gf.Elem(b)})
		return s12 == s1^s2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
