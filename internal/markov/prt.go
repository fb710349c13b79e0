package markov

import (
	"fmt"
	"math"
)

// PRTModel parameterises the π-test detection chain.
type PRTModel struct {
	// M is the word width, K the automaton stage count: a random
	// surviving error state aliases the signature with probability
	// 2^-(M·K).
	M, K int
	// PExcite is the per-iteration probability that the test data
	// background excites the fault (1 for faults the "specific TDB"
	// provably excites, ~0.5 per iteration for value-conditioned
	// coupling faults under a random background).
	PExcite float64
}

// AliasProbability returns 2^-(m·k), the signature escape probability
// for an excited fault whose error reaches the comparison as a
// uniformly random nonzero state.
func (p PRTModel) AliasProbability() float64 {
	return math.Pow(2, -float64(p.M*p.K))
}

// Chain builds the 4-state absorbing chain over one π-iteration:
//
//	Dormant  -- PExcite --> Excited        (background hits the fault)
//	Excited  -- 1-alias --> Detected       (signature mismatch)
//	Excited  --   alias --> Dormant        (aliased; retry next iteration)
//	Detected, Escaped absorbing
//
// Escaped is reached only from Dormant when the model is truncated —
// the infinite-horizon chain absorbs in Detected with probability 1
// whenever PExcite > 0, which is exactly the paper's "high resolution"
// statement; finite-iteration truncation is what DetectionProbability
// quantifies.
func (p PRTModel) Chain() (*Chain, error) {
	if p.PExcite < 0 || p.PExcite > 1 {
		return nil, fmt.Errorf("markov: PExcite %g out of range", p.PExcite)
	}
	if p.M < 1 || p.K < 1 {
		return nil, fmt.Errorf("markov: bad geometry m=%d k=%d", p.M, p.K)
	}
	alias := p.AliasProbability()
	states := []string{"Dormant", "Excited", "Detected", "Escaped"}
	mat := [][]float64{
		{1 - p.PExcite, p.PExcite, 0, 0},
		{alias, 0, 1 - alias, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	return NewChain(states, mat)
}

// DetectionProbability returns the probability that the fault is
// detected within the given number of π-iterations, starting dormant.
// Each iteration is two chain steps (excitation, then signature).
func (p PRTModel) DetectionProbability(iterations int) (float64, error) {
	c, err := p.Chain()
	if err != nil {
		return 0, err
	}
	d := c.PointMass(c.Index("Dormant"))
	d = c.Distribution(d, 2*iterations)
	return d[c.Index("Detected")], nil
}

// IterationsFor returns the least iteration count whose detection
// probability reaches target (e.g. 0.999).  Returns 0 and an error when
// the model cannot reach the target (PExcite == 0).
func (p PRTModel) IterationsFor(target float64) (int, error) {
	if p.PExcite <= 0 {
		return 0, fmt.Errorf("markov: unreachable target with PExcite=0")
	}
	for it := 1; it <= 10000; it++ {
		d, err := p.DetectionProbability(it)
		if err != nil {
			return 0, err
		}
		if d >= target {
			return it, nil
		}
	}
	return 0, fmt.Errorf("markov: target %g not reached within 10000 iterations", target)
}
