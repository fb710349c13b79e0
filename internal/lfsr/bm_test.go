package lfsr

import (
	"testing"

	"repro/internal/gf"
)

func TestBMRecoversPaperAutomaton(t *testing.T) {
	// The Fig. 1b sequence must synthesise back to g(x)=1+2x+2x^2 with
	// linear complexity 2.
	g := PaperGenPoly()
	seq := MustAffine(g, 0, []gf.Elem{0, 1}).Sequence(40)
	rec, L, err := BerlekampMassey(g.Field, seq)
	if err != nil {
		t.Fatal(err)
	}
	if L != 2 {
		t.Fatalf("linear complexity = %d, want 2", L)
	}
	if rec.K() != 2 || rec.Coeffs[1] != 2 || rec.Coeffs[2] != 2 {
		t.Errorf("recovered generator %v, want 1+2x+2x^2", rec)
	}
	// And the recovered automaton regenerates the sequence.
	reseq := MustAffine(rec, 0, seq[:2]).Sequence(40)
	for i := range seq {
		if reseq[i] != seq[i] {
			t.Fatalf("regenerated sequence diverges at %d", i)
		}
	}
}

func TestBMRecoversBitLFSR(t *testing.T) {
	f := gf.NewField(1)
	g := MustGenPoly(f, []gf.Elem{1, 1, 0, 1}) // 1+x+x^3... wait taps
	seq := MustAffine(g, 0, []gf.Elem{1, 0, 0}).Sequence(30)
	rec, L, err := BerlekampMassey(f, seq)
	if err != nil {
		t.Fatal(err)
	}
	if L != 3 {
		t.Fatalf("complexity = %d, want 3", L)
	}
	reseq := MustAffine(rec, 0, seq[:L]).Sequence(30)
	for i := range seq {
		if reseq[i] != seq[i] {
			t.Fatalf("regeneration diverges at %d", i)
		}
	}
}

func TestBMZeroSequence(t *testing.T) {
	f := gf.NewField(4)
	_, L, err := BerlekampMassey(f, make([]gf.Elem, 20))
	if err != nil || L != 0 {
		t.Errorf("zero sequence complexity = %d err=%v", L, err)
	}
}

func TestBMEmptySequence(t *testing.T) {
	f := gf.NewField(4)
	_, L, err := BerlekampMassey(f, nil)
	if err != nil || L != 0 {
		t.Errorf("empty sequence complexity = %d err=%v", L, err)
	}
}

func TestBMCorruptionRaisesComplexity(t *testing.T) {
	// Flipping one value of an order-2 sequence must raise the linear
	// complexity above 2 — the diagnosis signal.
	g := PaperGenPoly()
	seq := MustAffine(g, 0, []gf.Elem{0, 1}).Sequence(60)
	seq[30] ^= 0x5
	L, err := LinearComplexity(g.Field, seq)
	if err != nil {
		t.Fatal(err)
	}
	if L <= 2 {
		t.Errorf("corrupted sequence complexity = %d, want > 2", L)
	}
}

func TestBMValidation(t *testing.T) {
	if _, _, err := BerlekampMassey(nil, nil); err == nil {
		t.Error("nil field accepted")
	}
	f := gf.NewField(4)
	if _, _, err := BerlekampMassey(f, []gf.Elem{0x10}); err == nil {
		t.Error("out-of-field value accepted")
	}
}

func TestBMRandomSequencesRegenerate(t *testing.T) {
	// For arbitrary sequences, the synthesised LFSR must regenerate the
	// full input (the defining property of Berlekamp-Massey).
	f := gf.NewField(4)
	rng := uint64(12345)
	next := func() gf.Elem {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return gf.Elem(rng & 0xF)
	}
	for trial := 0; trial < 20; trial++ {
		seq := make([]gf.Elem, 24)
		for i := range seq {
			seq[i] = next()
		}
		gen, L, err := BerlekampMassey(f, seq)
		if err != nil {
			t.Fatal(err)
		}
		if L == 0 {
			continue
		}
		if L >= len(seq) {
			continue // complexity too close to window to verify
		}
		if gen.K() > L {
			t.Fatalf("generator longer than complexity: %d > %d", gen.K(), L)
		}
		// Regenerate using the first gen.K() values as seed.
		k := gen.K()
		reseq := MustAffine(gen, 0, seq[:k]).Sequence(len(seq))
		// BM guarantees regeneration when 2L <= len(seq).
		if 2*L <= len(seq) {
			for i := range seq {
				if reseq[i] != seq[i] {
					t.Fatalf("trial %d: diverges at %d (L=%d k=%d)", trial, i, L, k)
				}
			}
		}
	}
}
