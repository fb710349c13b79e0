// Structural fault collapsing.  Collapse must be deterministic: the
// streaming drivers collapse chunk-locally on every run and the
// equivalence property tests byte-compare collapsed campaigns against
// full ones, so class representatives may not depend on iteration
// order.
//
//faultsim:deterministic

package fault

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
//   - trace-independent structural rules: bridging faults, whose
//     wired-AND/OR behaviour is symmetric in the two bridged bits
//     (BF{a~b} ≡ BF{b~a}); and degenerate "benign" instances that behave
//     exactly like a fault-free memory (NPSF with an incomplete
//     neighbourhood, self-aliasing decoder faults, self-bridged bits).
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
//
// Only a candidate — a fault some rule can merge with a different
// fault — is keyed (candidateKey).  Every other fault is its own
// representative and never touches the class map, so a chunk of
// coupling faults pays one type switch per fault plus one map insert
// per bridge.  Exact duplicates of a candidate still merge, because
// their keys match; a duplicate of any other fault is simulated twice,
// which costs time but never changes a verdict.

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

// collapseKey is the equivalence-class key of a candidate fault: one
// comparable struct of machine words for every rule, so the class map
// hashes plain memory and never boxes a key.
type collapseKey struct {
	rule        int // keyBenign, keySAFPair, keyBFAnd or keyBFOr
	cellA, bitA int
	cellB, bitB int
}

// Rules of collapseKey.
const (
	// keyBenign is the shared class of faults that behave exactly like a
	// fault-free memory; its representative is always reported
	// undetected (a clean machine never diverges from the recorded
	// clean trace).
	keyBenign = iota
	// keySAFPair groups SA0/SA1 on one bit when the trace makes their
	// outcomes provably identical.
	keySAFPair
	// keyBFAnd and keyBFOr key a bridge by its ends in canonical order.
	keyBFAnd
	keyBFOr
)

// candidateKey is the rule function: it reports whether some rule can
// merge f with a different fault and, if so, f's class key.  Faults
// with equal keys must be detected identically by any replay of the
// summarised trace.
//
//faultsim:hotpath
func candidateKey(f Fault, sum *TraceSummary) (collapseKey, bool) {
	switch t := f.(type) {
	case BF:
		if t.CellA == t.CellB && t.BitA == t.BitB {
			return collapseKey{rule: keyBenign}, true // x wired with itself is x
		}
		if t.CellA > t.CellB || (t.CellA == t.CellB && t.BitA > t.BitB) {
			t.CellA, t.CellB = t.CellB, t.CellA
			t.BitA, t.BitB = t.BitB, t.BitA
		}
		rule := keyBFOr
		if t.And {
			rule = keyBFAnd
		}
		return collapseKey{rule, t.CellA, t.BitA, t.CellB, t.BitB}, true
	case AF:
		// A self-alias or self-multi access is the identity.
		return collapseKey{rule: keyBenign}, t.Kind != AFNone && t.Addr == t.Target
	case SNPSF:
		// An incomplete neighbourhood never matches.
		return collapseKey{rule: keyBenign}, !t.Nb.Complete()
	case ANPSF:
		// A missing neighbour blocks every firing.
		return collapseKey{rule: keyBenign}, !t.Nb.Complete()
	case SAF:
		if sum == nil || sum.Affine {
			break
		}
		idx := t.Cell*sum.Width + t.Bit
		if t.Bit >= sum.Width || idx < 0 || idx >= len(sum.Expect) {
			break
		}
		// With both polarities checked, SA0 and SA1 are both detected
		// (the observers cannot un-detect a diverging checked read);
		// with neither polarity checked and the bit feeding no
		// observer, both are undetected.  A folded bit without full
		// checked coverage must stay split: the two polarities fold
		// different error patterns and may alias differently.
		e := sum.Expect[idx]
		if p := e & 3; p == 3 || (p == 0 && e&ExpectFolded == 0) {
			return collapseKey{rule: keySAFPair, cellA: t.Cell, bitA: t.Bit}, true
		}
	}
	return collapseKey{}, false
}

// Collapser collapses chunk after chunk with state it keeps between
// calls: each streaming worker owns one and reuses it for every chunk,
// so a steady stream of chunks of one shape allocates nothing.  Its
// class map grows with the candidates of a chunk, and its Reps and Map
// with the chunk only once something in a chunk merges.  The zero value
// is ready to use; a Collapser is not safe for concurrent use.
type Collapser struct {
	class map[collapseKey]int // candidate key → representative index
	col   Collapsed
}

// Collapse partitions faults into exact equivalence classes.  sum, when
// non-nil, enables the trace-conditioned rules; the caller must have
// produced it from the same trace the representatives will be simulated
// against.  It returns nil when nothing merges: every fault is its own
// representative, so the caller replays faults as they are and expands
// nothing.  Otherwise the result is valid until the next call.
//
//faultsim:hotpath
func (c *Collapser) Collapse(faults []Fault, sum *TraceSummary) *Collapsed {
	if len(c.class) > 0 {
		clear(c.class)
	}
	reps, m := c.col.Reps[:0], c.col.Map[:0]
	merged := false
	for i, f := range faults {
		k, ok := candidateKey(f, sum)
		if !ok {
			if merged {
				m = append(m, len(reps))
				reps = append(reps, f)
			}
			continue
		}
		if c.class == nil {
			c.class = make(map[collapseKey]int) //faultsim:alloc-ok once per Collapser, on its first candidate
		}
		//faultsim:alloc-ok lookup by a typed key: hashes five words, boxes nothing
		if r, hit := c.class[k]; hit {
			if !merged {
				// The first merge: every fault before it was its own
				// representative, so the prefix maps to itself.
				if cap(reps) < len(faults) {
					reps = make([]Fault, 0, len(faults)) //faultsim:alloc-ok sized to the chunk once, when a chunk first merges
					m = make([]int, 0, len(faults))      //faultsim:alloc-ok sized to the chunk once, when a chunk first merges
				}
				reps = append(reps, faults[:i]...)
				for j := 0; j < i; j++ {
					m = append(m, j)
				}
				merged = true
			}
			m = append(m, r)
			continue
		}
		r := i // before the first merge, fault i is representative i
		if merged {
			r = len(reps)
			m = append(m, r)
			reps = append(reps, f)
		}
		c.class[k] = r //faultsim:alloc-ok insert: clear keeps the buckets, so a chunk with no more candidates than an earlier one does not grow the map
	}
	if !merged {
		return nil
	}
	c.col.Reps, c.col.Map = reps, m
	return &c.col
}

// Collapse partitions the universe into exact equivalence classes with
// a fresh Collapser and returns the whole result: when nothing merges,
// Reps is faults itself (capacity-clipped) and Map the identity.  sum
// is as for Collapser.Collapse.
func Collapse(faults []Fault, sum *TraceSummary) Collapsed {
	var c Collapser
	if col := c.Collapse(faults, sum); col != nil {
		return *col
	}
	m := make([]int, len(faults))
	for i := range m {
		m[i] = i
	}
	return Collapsed{Reps: faults[:len(faults):len(faults)], Map: m}
}

// CollapseView is Collapse over a view: the equivalence classes are
// computed among the view's faults only (Map is indexed by view
// position), so a representative whose class has no member in the
// view is not simulated, and ExpandInto scatters results back per view
// position.
func CollapseView(v View, sum *TraceSummary) Collapsed {
	faults := make([]Fault, v.Len())
	for i := range faults {
		faults[i] = v.At(i)
	}
	return Collapse(faults, sum)
}
