// Package markov implements the Markov-chain model behind the paper's
// §3 claim ("Applying Markov chain analysis it was shown that π-test
// iteration has a high resolution for most memory faults"): a small
// chain with named states whose distribution, stepped forward, gives
// the probability that a fault is detected within a number of
// iterations.
//
// The model: a fault starts dormant; each π-iteration excites it with
// some probability (determined by the test data background); once
// excited, the resulting error walks the linear automaton to the final
// state and is caught by the signature comparison unless it aliases —
// for a k-stage automaton over GF(2^m) a random nonzero error state
// aliases with probability 2^-(m·k) per iteration.  Detection and
// permanent escape are the absorbing states.
package markov

import (
	"fmt"
	"math"
)

// Chain is a finite Markov chain with named states and row-stochastic
// transition matrix P (P[i][j] = probability i -> j).
type Chain struct {
	States []string
	P      [][]float64
}

// NewChain validates and returns a chain.
func NewChain(states []string, p [][]float64) (*Chain, error) {
	n := len(states)
	if n == 0 || len(p) != n {
		return nil, fmt.Errorf("markov: need %d transition rows, have %d", n, len(p))
	}
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("markov: row %d has %d entries", i, len(row))
		}
		sum := 0.0
		for _, v := range row {
			if v < -1e-12 || v > 1+1e-12 {
				return nil, fmt.Errorf("markov: probability %g out of range in row %d", v, i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("markov: row %d sums to %g", i, sum)
		}
	}
	return &Chain{States: states, P: p}, nil
}

// Index returns the index of the named state, or -1.
func (c *Chain) Index(name string) int {
	for i, s := range c.States {
		if s == name {
			return i
		}
	}
	return -1
}

// Step advances a distribution one transition: d' = d·P.
func (c *Chain) Step(d []float64) []float64 {
	n := len(c.States)
	out := make([]float64, n)
	for i, di := range d {
		if di == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			out[j] += di * c.P[i][j]
		}
	}
	return out
}

// Distribution returns the state distribution after t steps starting
// from the given initial distribution.
func (c *Chain) Distribution(init []float64, t int) []float64 {
	d := append([]float64(nil), init...)
	for s := 0; s < t; s++ {
		d = c.Step(d)
	}
	return d
}

// PointMass returns the distribution concentrated on state i.
func (c *Chain) PointMass(i int) []float64 {
	d := make([]float64, len(c.States))
	d[i] = 1
	return d
}
