// Structural fault collapsing.  Collapse must be deterministic: the
// streaming drivers collapse chunk-locally on every run and the
// equivalence property tests byte-compare collapsed campaigns against
// full ones, so class representatives may not depend on iteration
// order.
//
//faultsim:deterministic

package fault

import "repro/internal/telemetry"

// Structural fault collapsing: before a campaign simulates a universe,
// faults that provably produce the same detection outcome are grouped
// into equivalence classes, one representative per class is simulated,
// and the representative's result is expanded back over the class.
// Every rule here is an exact equivalence — never a dominance
// heuristic — so collapsed campaigns are byte-identical to full ones
// (the engine-equivalence property tests assert this).
//
// Two rule families exist:
//
//   - trace-independent structural rules: value-identical duplicates;
//     bridging faults, whose wired-AND/OR behaviour is symmetric in the
//     two bridged bits (BF{a~b} ≡ BF{b~a}); and degenerate "benign"
//     instances that behave exactly like a fault-free memory (NPSF
//     with an incomplete neighbourhood, self-aliasing decoder faults,
//     self-bridged bits).
//
//   - trace-conditioned rules, enabled by a TraceSummary from the trace
//     compiler: when the trace has no affine recurrence writes, read
//     values feed nothing but the checked-read comparators and the
//     signature observers, so a stuck-at fault is detected exactly when
//     some checked read of its cell expects the opposite polarity or
//     the bit's error pattern survives an observer.  If checked reads
//     expect both polarities of a bit, SA0 and SA1 on that bit are both
//     detected and collapse to a single representative; if neither
//     polarity is checked AND the bit never feeds a signature observer,
//     both are undetected and also collapse.  A folded-but-unchecked
//     bit stays uncollapsed: SA0 and SA1 inject different error
//     patterns into the register and may alias differently.

// TraceSummary captures the replay-relevant properties of a recorded
// test trace that trace-conditioned collapsing rules rely on.  It is
// produced by the trace compiler (sim.(*Program).Summary); passing nil
// to Collapse restricts it to the trace-independent rules.
type TraceSummary struct {
	// Width is the memory's cell width in bits.
	Width int
	// Affine reports whether any write derives from earlier reads.
	// When true, read errors propagate between cells and per-cell
	// detection reasoning is unsound, so the SAF rule is disabled.
	Affine bool
	// Expect[cell*Width+bit] is the set of polarities checked reads
	// expect of that stored bit: bit 0 set when some checked read
	// expects 0, bit 1 when some checked read expects 1; ExpectFolded
	// set when a read of the bit feeds a signature observer.
	Expect []uint8
}

// ExpectFolded flags a TraceSummary.Expect bit that feeds a signature
// observer via a fold annotation.
const ExpectFolded uint8 = 1 << 2

// Collapsed is the result of collapsing a fault universe.
type Collapsed struct {
	// Reps holds one representative per equivalence class, in first-
	// occurrence order of the original universe.
	Reps []Fault
	// Map[i] is the index into Reps whose simulation result decides
	// fault i of the original universe.
	Map []int
}

// ExpandInto maps per-representative detection results rep back onto
// the collapsed faults, writing dst[i] for fault i of len(Map) — the
// streaming drivers' per-chunk expansion, which reuses one worker
// buffer across every chunk of a campaign.
//
//faultsim:hotpath
func (c *Collapsed) ExpandInto(dst, rep []bool) {
	for i, r := range c.Map {
		dst[i] = rep[r]
	}
}

// Saved returns how many simulations collapsing avoids.
func (c *Collapsed) Saved() int { return len(c.Map) - len(c.Reps) }

// benignKey is the shared equivalence class of faults that behave
// exactly like a fault-free memory; its representative is always
// reported undetected (a clean machine never diverges from the
// recorded clean trace).
type benignKey struct{}

// safPairKey groups SA0/SA1 on one bit when the trace makes their
// outcomes provably identical.
type safPairKey struct{ cell, bit int }

// Collapse partitions the universe into exact equivalence classes.
// sum, when non-nil, enables the trace-conditioned rules; the caller
// must have produced it from the same trace the representatives will be
// simulated against.
func Collapse(faults []Fault, sum *TraceSummary) Collapsed {
	return CollapseView(Span(faults), sum)
}

// CollapseView is Collapse over a view: the equivalence classes are
// computed among the view's faults only (Map is indexed by view
// position), so a representative whose class has no member in the
// view is not simulated, and ExpandInto scatters results back per view
// position.
func CollapseView(v View, sum *TraceSummary) Collapsed {
	n := v.Len()
	col := Collapsed{Map: make([]int, n)}
	index := make(map[any]int, n)
	for i := 0; i < n; i++ {
		f := v.At(i)
		key := collapseKey(f, sum)
		if r, ok := index[key]; ok {
			col.Map[i] = r
			continue
		}
		r := len(col.Reps)
		col.Reps = append(col.Reps, f)
		index[key] = r
		col.Map[i] = r
	}
	telemetry.Active().CollapseDelta(n, len(col.Reps))
	return col
}

// collapseKey computes the equivalence-class key of a fault.  Faults
// with equal keys must be detected identically by any replay of the
// summarised trace.  The default key is the fault value itself, which
// collapses exact duplicates and nothing else.
func collapseKey(f Fault, sum *TraceSummary) any {
	switch t := f.(type) {
	case SAF:
		if sum != nil && !sum.Affine {
			idx := t.Cell*sum.Width + t.Bit
			if t.Bit < sum.Width && idx >= 0 && idx < len(sum.Expect) {
				// With both polarities checked, SA0 and SA1 are both
				// detected (the observers cannot un-detect a diverging
				// checked read); with neither polarity checked and the
				// bit feeding no observer, both are undetected.  A
				// folded bit without full checked coverage must stay
				// split: the two polarities fold different error
				// patterns and may alias differently.
				e := sum.Expect[idx]
				if p := e & 3; p == 3 || (p == 0 && e&ExpectFolded == 0) {
					return safPairKey{t.Cell, t.Bit}
				}
			}
		}
		return t
	case BF:
		if t.CellA == t.CellB && t.BitA == t.BitB {
			return benignKey{} // x wired with itself is x
		}
		if t.CellA > t.CellB || (t.CellA == t.CellB && t.BitA > t.BitB) {
			t.CellA, t.CellB = t.CellB, t.CellA
			t.BitA, t.BitB = t.BitB, t.BitA
		}
		return t
	case AF:
		if t.Kind != AFNone && t.Addr == t.Target {
			return benignKey{} // self-alias / self-multi is the identity
		}
		return t
	case SNPSF:
		if !t.Nb.Complete() {
			return benignKey{} // incomplete neighbourhood never matches
		}
		return t
	case ANPSF:
		if !t.Nb.Complete() {
			return benignKey{} // a missing neighbour blocks every firing
		}
		return t
	}
	return f
}
