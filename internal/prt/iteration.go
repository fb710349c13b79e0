package prt

import (
	"slices"

	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/ram"
)

// IterationResult reports one π-test iteration.
type IterationResult struct {
	// Fin is the observed final automaton state, oldest first.  In
	// plain mode these are the last k cells of the trajectory; in Ring
	// mode they are the first k cells after the wrap-around rewrite.
	Fin []gf.Elem
	// FinStar is the a-priori expectation computed on the virtual
	// (affine) LFSR model.
	FinStar []gf.Elem
	// Detected is true when the signature check (Fin vs Fin*) or the
	// optional Verify pass failed.
	Detected bool
	// SignatureMiss is true when specifically Fin != Fin*.
	SignatureMiss bool
	// VerifyMismatches counts cells failing the optional read-back
	// pass (0 when Verify is off).
	VerifyMismatches int
	// StaleMismatches counts pre-rewrite reads that disagreed with the
	// expected carried-over contents (0 when CaptureStale is off).
	StaleMismatches int
	// RingClosed reports Fin == Init, the paper's pseudo-ring property.
	RingClosed bool
	// Ops counts memory operations (reads + writes) performed.
	Ops uint64
}

// RunIteration executes one π-test iteration on mem.
//
// The iteration writes the k seed values into the first k cells of the
// trajectory, then for each further cell performs k reads (the k
// previous cells) and one write (the recurrence value), and finally
// re-reads the final k cells as the observed Fin.  For k = 2 this is
// the paper's {c(r_i, r_{i+1}, w_{i+2} = r_i ⊕ r_{i+1})} sub-iteration
// with time complexity O(3n).
//
// Crucially the recurrence inputs are read back from the memory at
// every step — not carried in registers — so the walking automaton is
// emulated by the memory's own cells and any stored error keeps
// propagating toward Fin.
//
// In Ring mode the walk continues for k extra steps, re-writing the
// seed cells through the recurrence (the automaton closes the ring,
// n steps in total); Fin is then the first k cells.
func RunIteration(cfg Config, mem ram.Memory) (IterationResult, error) {
	if err := cfg.Validate(mem.Size(), mem.Width()); err != nil {
		return IterationResult{}, err
	}
	f := cfg.Gen.Field
	k := cfg.Gen.K()
	n := mem.Size()
	addr := cfg.Addresses(n)
	taps := cfg.Gen.Taps() // a₁ … a_k
	var res IterationResult

	// When running on a trace recorder, describe each recurrence write
	// as the affine map of the k preceding reads so the bit-parallel
	// replay preserves error propagation through the walking automaton.
	var tapRows [][]uint32
	var backPlain, backStale []int
	if _, tracing := mem.(ram.TraceAnnotator); tracing {
		tapRows = cfg.Gen.TapRows()
		backPlain = make([]int, k)
		backStale = make([]int, k)
		for j := 1; j <= k; j++ {
			backPlain[j-1] = k - j + 1
			backStale[j-1] = k - j + 2
		}
	}

	capture := cfg.CaptureStale && cfg.StaleExpect != nil
	// Phase 1: seed Init into the first k cells of the trajectory
	// (capturing their stale contents first when configured).
	for i := 0; i < k; i++ {
		if capture {
			stale := gf.Elem(mem.Read(addr[i]))
			ram.AnnotateChecked(mem)
			res.Ops++
			if stale != cfg.StaleExpect[addr[i]] {
				res.StaleMismatches++
			}
		}
		mem.Write(addr[i], ram.Word(cfg.Seed[i]))
		res.Ops++
	}
	// Phase 2: walk the automaton through the array (and around the
	// ring in Ring mode).
	steps := n
	if cfg.Ring {
		steps = n + k
	}
	for i := k; i < steps; i++ {
		next := cfg.Offset
		// next = q ⊕ Σ_{j=1..k} a_j · c_{i-j}, all inputs read now.
		for j := 1; j <= k; j++ {
			v := gf.Elem(mem.Read(addr[(i-j)%n]))
			res.Ops++
			next = f.Add(next, f.Mul(taps[j-1], v))
		}
		target := addr[i%n]
		staleHere := capture && i < n
		if staleHere {
			stale := gf.Elem(mem.Read(target))
			ram.AnnotateChecked(mem)
			res.Ops++
			if stale != cfg.StaleExpect[target] {
				res.StaleMismatches++
			}
		}
		mem.Write(target, ram.Word(next))
		if tapRows != nil {
			if staleHere {
				ram.AnnotateLinear(mem, backStale, tapRows, ram.Word(cfg.Offset))
			} else {
				ram.AnnotateLinear(mem, backPlain, tapRows, ram.Word(cfg.Offset))
			}
		}
		res.Ops++
	}
	// Phase 3: observe Fin (oldest first) and compare with the model.
	finBase := n - k // plain mode: last k cells
	if cfg.Ring {
		finBase = n // wrap: cells addr[0..k-1] hold S_n
	}
	res.Fin = make([]gf.Elem, k)
	for i := 0; i < k; i++ {
		res.Fin[i] = gf.Elem(mem.Read(addr[(finBase+i)%n]))
		ram.AnnotateChecked(mem)
		res.Ops++
	}
	finStar, err := lfsr.AffineJumpAhead(cfg.Gen, cfg.Offset, cfg.Seed, uint64(steps-k))
	if err != nil {
		return res, err
	}
	res.FinStar = finStar
	res.SignatureMiss = !slices.Equal(res.Fin, res.FinStar)
	res.Detected = res.SignatureMiss || res.StaleMismatches > 0
	res.RingClosed = slices.Equal(res.Fin, cfg.Seed)

	// Phase 4 (optional): full read-back verification against the TDB.
	if cfg.Verify {
		mm, ops := verifyPass(cfg, mem, addr, steps)
		res.VerifyMismatches = mm
		res.Ops += ops
		if mm > 0 {
			res.Detected = true
		}
	}
	return res, nil
}

// verifyPass re-reads every cell and compares with the expected TDB.
func verifyPass(cfg Config, mem ram.Memory, addr []int, steps int) (mismatches int, ops uint64) {
	want := expectedContents(cfg, len(addr), steps)
	for i := 0; i < len(addr); i++ {
		got := gf.Elem(mem.Read(addr[i]))
		ram.AnnotateChecked(mem)
		ops++
		if got != want[i] {
			mismatches++
		}
	}
	return mismatches, ops
}

// ExpectedFinalContents returns the fault-free post-iteration cell
// contents indexed by address — the StaleExpect input of a following
// CaptureStale iteration.
func ExpectedFinalContents(cfg Config, n int) []gf.Elem {
	addr := cfg.Addresses(n)
	steps := n
	if cfg.Ring {
		steps = n + cfg.Gen.K()
	}
	byPos := expectedContents(cfg, n, steps)
	out := make([]gf.Elem, n)
	for i, a := range addr {
		out[a] = byPos[i]
	}
	return out
}

// expectedContents returns the fault-free cell contents (indexed by
// trajectory position) after an iteration of the given step count.
func expectedContents(cfg Config, n, steps int) []gf.Elem {
	a := lfsr.MustAffine(cfg.Gen, cfg.Offset, cfg.Seed)
	seq := a.Sequence(steps)
	out := make([]gf.Elem, n)
	copy(out, seq[:n])
	// Ring mode overwrote the first steps-n cells with the wrapped
	// values u_n … u_{steps-1}.
	for i := n; i < steps; i++ {
		out[i-n] = seq[i]
	}
	return out
}

// MustRunIteration is RunIteration but panics on configuration errors.
func MustRunIteration(cfg Config, mem ram.Memory) IterationResult {
	r, err := RunIteration(cfg, mem)
	if err != nil {
		panic(err)
	}
	return r
}

// RingCloses predicts, from the automaton model alone, whether a
// fault-free π-iteration over n cells returns to Init: in plain mode
// n-k, in Ring mode n, must be a multiple of the orbit period.
func RingCloses(cfg Config, n int) bool {
	a := lfsr.MustAffine(cfg.Gen, cfg.Offset, cfg.Seed)
	p := a.Period(0)
	if p == 0 {
		return false
	}
	steps := uint64(n - cfg.Gen.K())
	if cfg.Ring {
		steps = uint64(n)
	}
	return steps%p == 0
}

// ExpectedSequence returns the fault-free TDB the iteration writes
// into the first count cells of the trajectory (the cell values of
// Fig. 1).
func ExpectedSequence(cfg Config, count int) []gf.Elem {
	a := lfsr.MustAffine(cfg.Gen, cfg.Offset, cfg.Seed)
	return a.Sequence(count)
}

// FormatState renders an automaton state like "(0,1)" with hex digits.
func FormatState(f *gf.Field, s []gf.Elem) string {
	out := "("
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += f.FormatElem(v)
	}
	return out + ")"
}
