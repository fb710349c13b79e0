package markov

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(nil, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := NewChain([]string{"a"}, [][]float64{{0.5}}); err == nil {
		t.Error("non-stochastic row accepted")
	}
	if _, err := NewChain([]string{"a", "b"}, [][]float64{{1, 0}}); err == nil {
		t.Error("missing row accepted")
	}
	if _, err := NewChain([]string{"a"}, [][]float64{{1, 0}}); err == nil {
		t.Error("ragged row accepted")
	}
	if _, err := NewChain([]string{"a", "b"}, [][]float64{{1.5, -0.5}, {0, 1}}); err == nil {
		t.Error("out-of-range probability accepted")
	}
}

func TestStepAndDistribution(t *testing.T) {
	// Two-state chain: a->b with prob 1, b absorbing.
	c := MustChain([]string{"a", "b"}, [][]float64{{0, 1}, {0, 1}})
	d := c.Distribution(c.PointMass(0), 1)
	if !almost(d[1], 1) {
		t.Errorf("distribution after 1 step: %v", d)
	}
	if c.Index("b") != 1 || c.Index("zz") != -1 {
		t.Error("Index wrong")
	}
}

// --- PRT model ---

func TestAliasProbability(t *testing.T) {
	if !almost((PRTModel{M: 4, K: 2}).AliasProbability(), 1.0/256) {
		t.Error("alias probability wrong for m=4,k=2")
	}
	if !almost((PRTModel{M: 1, K: 2}).AliasProbability(), 0.25) {
		t.Error("alias probability wrong for m=1,k=2")
	}
}

func TestDetectionProbabilityMonotone(t *testing.T) {
	p := PRTModel{M: 4, K: 2, PExcite: 0.5}
	prev := 0.0
	for it := 1; it <= 10; it++ {
		d, err := p.DetectionProbability(it)
		if err != nil {
			t.Fatal(err)
		}
		if d <= prev {
			t.Errorf("detection not increasing at it=%d: %g <= %g", it, d, prev)
		}
		prev = d
	}
	if prev < 0.99 {
		t.Errorf("10 iterations reach only %g", prev)
	}
}

func TestDetectionProbabilityDeterministicExcitation(t *testing.T) {
	// PExcite=1: after one iteration the fault is detected unless it
	// aliased: P = (1 - 2^-(mk)).
	p := PRTModel{M: 4, K: 2, PExcite: 1}
	d, err := p.DetectionProbability(1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(d, 1-1.0/256) {
		t.Errorf("one-iteration detection = %g, want %g", d, 1-1.0/256)
	}
}

// TestPaperThreeIterationResolution quantifies the §3 statement: with
// the specific TDB (PExcite=1) the word-oriented automaton reaches
// 0.999999+ detection within 3 iterations.
func TestPaperThreeIterationResolution(t *testing.T) {
	p := PRTModel{M: 4, K: 2, PExcite: 1}
	d, err := p.DetectionProbability(3)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.99999 {
		t.Errorf("3-iteration detection = %g", d)
	}
	it, err := p.IterationsFor(0.999)
	if err != nil || it > 2 {
		t.Errorf("iterations for 0.999 = %d (err %v)", it, err)
	}
	// The bit-oriented automaton (m=1) needs more iterations: its alias
	// probability is 1/4.
	pb := PRTModel{M: 1, K: 2, PExcite: 1}
	itb, err := pb.IterationsFor(0.999)
	if err != nil || itb <= it {
		t.Errorf("BOM iterations = %d should exceed WOM %d", itb, it)
	}
}

func TestPRTModelValidation(t *testing.T) {
	if _, err := (PRTModel{M: 0, K: 2, PExcite: 1}).Chain(); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := (PRTModel{M: 4, K: 2, PExcite: 2}).Chain(); err == nil {
		t.Error("bad probability accepted")
	}
	if _, err := (PRTModel{M: 4, K: 2, PExcite: 0}).IterationsFor(0.9); err == nil {
		t.Error("unreachable target accepted")
	}
}

// MustChain is NewChain but panics on error.
func MustChain(states []string, p [][]float64) *Chain {
	c, err := NewChain(states, p)
	if err != nil {
		panic(err)
	}
	return c
}
