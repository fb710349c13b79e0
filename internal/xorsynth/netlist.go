// Package xorsynth synthesises XOR-only combinational networks that
// implement GF(2)-linear maps — in particular multiplication by a
// constant in GF(2^m), the operation the paper embeds in the memory
// circuit for word-oriented pseudo-ring testing ("Multiplier by a
// constant contains only XOR-gates and can be implemented inherently in
// the memory circuit").
//
// The package offers two synthesis strategies:
//
//   - Naive: each output bit is a linear XOR chain over its input
//     support, costing Σ (weight(row)-1) two-input gates.
//   - CSE: Paar's greedy common-subexpression elimination, which
//     repeatedly extracts the input pair shared by the most rows; this
//     is the "algorithm to design the optimal scheme of multiplication
//     by a constant" of §2 of the paper.
//
// A synthesised Netlist can be evaluated in software (to cross-check
// against field multiplication), costed (gate count, logic depth) and
// emitted as a small structural-Verilog-style listing for inspection.
package xorsynth

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/gf"
)

// Gate is a two-input XOR gate.  Operand indices refer to signals:
// 0..NIn-1 are the primary inputs, NIn+i is the output of Gates[i].
type Gate struct {
	A, B int
}

// Netlist is an XOR-only combinational network with NIn primary inputs
// and len(Outputs) primary outputs.  Outputs[i] is a signal index, or
// -1 when output i is constant zero (the zero row of the matrix).
type Netlist struct {
	NIn     int
	Gates   []Gate
	Outputs []int
}

// GateCount returns the number of two-input XOR gates.
func (n *Netlist) GateCount() int { return len(n.Gates) }

// Depth returns the maximum logic depth in gates from any input to any
// output (0 when every output is a wire or constant).
func (n *Netlist) Depth() int {
	depth := make([]int, n.NIn+len(n.Gates))
	maxOut := 0
	for i, g := range n.Gates {
		d := depth[g.A]
		if depth[g.B] > d {
			d = depth[g.B]
		}
		depth[n.NIn+i] = d + 1
	}
	for _, o := range n.Outputs {
		if o >= 0 && depth[o] > maxOut {
			maxOut = depth[o]
		}
	}
	return maxOut
}

// Eval applies the network to the input bit-vector x (bit j of x is
// input j) and returns the output bit-vector (bit i is output i).
func (n *Netlist) Eval(x uint32) uint32 {
	sig := make([]uint32, n.NIn+len(n.Gates))
	for j := 0; j < n.NIn; j++ {
		sig[j] = x >> uint(j) & 1
	}
	for i, g := range n.Gates {
		sig[n.NIn+i] = sig[g.A] ^ sig[g.B]
	}
	var y uint32
	for i, o := range n.Outputs {
		if o >= 0 {
			y |= sig[o] << uint(i)
		}
	}
	return y
}

// Matrix recovers the GF(2) matrix computed by the network: row i is
// the input support of output i.  Useful for verification.
func (n *Netlist) Matrix() gf.BitMatrix {
	support := make([]uint32, n.NIn+len(n.Gates))
	for j := 0; j < n.NIn; j++ {
		support[j] = 1 << uint(j)
	}
	for i, g := range n.Gates {
		support[n.NIn+i] = support[g.A] ^ support[g.B]
	}
	m := gf.NewBitMatrix(max(n.NIn, len(n.Outputs)))
	for i, o := range n.Outputs {
		if o >= 0 {
			m.Rows[i] = support[o]
		}
	}
	return m
}

// Verilog emits the network as a structural-Verilog-style listing with
// the given module name.  The output is stable and intended for humans
// and golden tests, not for a specific tool chain.
func (n *Netlist) Verilog(module string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s(input [%d:0] x, output [%d:0] y);\n",
		module, n.NIn-1, len(n.Outputs)-1)
	for i := range n.Gates {
		fmt.Fprintf(&b, "  wire w%d;\n", i)
	}
	name := func(sig int) string {
		if sig < n.NIn {
			return fmt.Sprintf("x[%d]", sig)
		}
		return fmt.Sprintf("w%d", sig-n.NIn)
	}
	for i, g := range n.Gates {
		fmt.Fprintf(&b, "  xor g%d(w%d, %s, %s);\n", i, i, name(g.A), name(g.B))
	}
	for i, o := range n.Outputs {
		if o < 0 {
			fmt.Fprintf(&b, "  assign y[%d] = 1'b0;\n", i)
		} else {
			fmt.Fprintf(&b, "  assign y[%d] = %s;\n", i, name(o))
		}
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// --- synthesis ---

// Naive synthesises each matrix row as an independent left-to-right XOR
// chain.  Gate count is Σ max(weight(row)-1, 0).
func Naive(m gf.BitMatrix) *Netlist {
	n := &Netlist{NIn: m.N, Outputs: make([]int, m.N)}
	for i, row := range m.Rows {
		n.Outputs[i] = n.chain(row)
	}
	return n
}

// chain builds an XOR chain over the set bits of support and returns
// the final signal index (-1 for empty support).
func (n *Netlist) chain(support uint32) int {
	if support == 0 {
		return -1
	}
	first := bits.TrailingZeros32(support)
	acc := first
	rest := support &^ (1 << uint(first))
	for rest != 0 {
		j := bits.TrailingZeros32(rest)
		rest &^= 1 << uint(j)
		n.Gates = append(n.Gates, Gate{A: acc, B: j})
		acc = n.NIn + len(n.Gates) - 1
	}
	return acc
}

// CSE synthesises the matrix with Paar's greedy common-subexpression
// elimination: while any signal pair is shared by two or more rows,
// extract the most frequent pair into a fresh gate and substitute it.
// Ties are broken towards the lexicographically smallest pair so the
// result is deterministic.
func CSE(m gf.BitMatrix) *Netlist {
	n := &Netlist{NIn: m.N, Outputs: make([]int, m.N)}
	// rows[i] is the current support of output i over an extended signal
	// space (inputs + extracted gates), represented as a sorted slice of
	// signal indices (supports can exceed 32 signals after extraction).
	rows := make([][]int, m.N)
	for i, r := range m.Rows {
		for j := 0; j < m.N; j++ {
			if r>>uint(j)&1 == 1 {
				rows[i] = append(rows[i], j)
			}
		}
	}
	for {
		a, b, count := mostFrequentPair(rows)
		if count < 2 {
			break
		}
		n.Gates = append(n.Gates, Gate{A: a, B: b})
		fresh := n.NIn + len(n.Gates) - 1
		for i := range rows {
			if containsBoth(rows[i], a, b) {
				rows[i] = substitute(rows[i], a, b, fresh)
			}
		}
	}
	// Chain whatever remains in each row.
	for i, row := range rows {
		n.Outputs[i] = n.chainSignals(row)
	}
	return n
}

// chainSignals XOR-chains an arbitrary signal list.
func (n *Netlist) chainSignals(sigs []int) int {
	if len(sigs) == 0 {
		return -1
	}
	acc := sigs[0]
	for _, s := range sigs[1:] {
		n.Gates = append(n.Gates, Gate{A: acc, B: s})
		acc = n.NIn + len(n.Gates) - 1
	}
	return acc
}

// mostFrequentPair scans all rows for the unordered signal pair present
// in the most rows.  Returns counts < 2 when no pair repeats.
func mostFrequentPair(rows [][]int) (bestA, bestB, bestCount int) {
	type pair struct{ a, b int }
	counts := make(map[pair]int)
	for _, row := range rows {
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				counts[pair{row[i], row[j]}]++
			}
		}
	}
	bestCount = 0
	for p, c := range counts {
		if c > bestCount || (c == bestCount && bestCount > 0 && lessPair(p.a, p.b, bestA, bestB)) {
			bestA, bestB, bestCount = p.a, p.b, c
		}
	}
	return bestA, bestB, bestCount
}

func lessPair(a1, b1, a2, b2 int) bool {
	if a1 != a2 {
		return a1 < a2
	}
	return b1 < b2
}

func containsBoth(row []int, a, b int) bool {
	foundA, foundB := false, false
	for _, s := range row {
		if s == a {
			foundA = true
		}
		if s == b {
			foundB = true
		}
	}
	return foundA && foundB
}

// substitute removes a and b from the (sorted) row and appends fresh,
// keeping the slice sorted.
func substitute(row []int, a, b, fresh int) []int {
	out := row[:0]
	for _, s := range row {
		if s != a && s != b {
			out = append(out, s)
		}
	}
	out = append(out, fresh)
	sort.Ints(out)
	return out
}

// Cost summarises a synthesis result.
type Cost struct {
	Constant   gf.Elem
	NaiveGates int
	CSEGates   int
	NaiveDepth int
	CSEDepth   int
}

// Saved returns the number of gates removed by CSE.
func (c Cost) Saved() int { return c.NaiveGates - c.CSEGates }

// SurveyField synthesises a multiplier for every nonzero constant of f
// and returns per-constant costs, ordered by constant.  This regenerates
// experiment E11 (multiplier synthesis table).
func SurveyField(f *gf.Field) []Cost {
	out := make([]Cost, 0, f.Size()-1)
	for c := gf.Elem(1); c <= f.Mask(); c++ {
		m := f.ConstMulMatrix(c)
		naive := Naive(m)
		cse := CSE(m)
		out = append(out, Cost{
			Constant:   c,
			NaiveGates: naive.GateCount(),
			CSEGates:   cse.GateCount(),
			NaiveDepth: naive.Depth(),
			CSEDepth:   cse.Depth(),
		})
	}
	return out
}
