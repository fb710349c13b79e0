package prt

import (
	"fmt"
	"slices"

	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/ram"
)

// Scheme is a multi-iteration PRT experiment: the paper's §3 result is
// that three π-test iterations with a specific test data background
// detect all single- and multi-cell faults, for bit- and word-oriented
// memories alike.
type Scheme struct {
	Name  string
	Iters []Config
}

// SchemeResult aggregates the per-iteration outcomes.
type SchemeResult struct {
	PerIteration []IterationResult
	// Detected is true when any iteration's signature check fails.
	Detected bool
	// DetectedAt is the 1-based index of the first detecting iteration
	// (0 when undetected).
	DetectedAt int
	// Ops totals memory operations across all iterations.
	Ops uint64
}

// Run executes all iterations in order on mem (the memory state carries
// over between iterations; each iteration re-seeds its first k cells).
// Mirror placeholders are resolved against the memory size first (see
// Resolve).
func (s Scheme) Run(mem ram.Memory) (SchemeResult, error) {
	var res SchemeResult
	iters, err := s.Resolve(mem.Size())
	if err != nil {
		return res, err
	}
	var prevContents []gf.Elem
	for i, cfg := range iters {
		// Feed the previous iteration's predicted contents to the
		// transparent stale capture.
		if cfg.CaptureStale && cfg.StaleExpect == nil {
			cfg.StaleExpect = prevContents // nil on the first iteration
		}
		ir, err := RunIteration(cfg, mem)
		if err != nil {
			return res, fmt.Errorf("prt: scheme %q iteration %d: %w", s.Name, i+1, err)
		}
		res.PerIteration = append(res.PerIteration, ir)
		res.Ops += ir.Ops
		if ir.Detected && !res.Detected {
			res.Detected = true
			res.DetectedAt = i + 1
		}
		prevContents = ExpectedFinalContents(cfg, mem.Size())
	}
	return res, nil
}

// Truncate returns a scheme with only the first count iterations —
// used by the coverage-versus-iterations experiments.
func (s Scheme) Truncate(count int) Scheme {
	if count > len(s.Iters) {
		count = len(s.Iters)
	}
	return Scheme{Name: fmt.Sprintf("%s[:%d]", s.Name, count), Iters: s.Iters[:count]}
}

// OpsPerCell estimates the per-cell operation count: each iteration
// costs (k+1) ops per cell (k reads + 1 write) plus O(k) edge terms —
// i.e. 3n for the paper's k=2 — plus one read per cell for each of the
// Verify and CaptureStale options.  Mirror placeholders inherit the
// register length of their source iteration.
func (s Scheme) OpsPerCell() int {
	total := 0
	for _, c := range s.Iters {
		k := 0
		if c.Gen.Field != nil {
			k = c.Gen.K()
		}
		if t := c.mirrorTarget(); t >= 0 && t < len(s.Iters) && s.Iters[t].Gen.Field != nil {
			k = s.Iters[t].Gen.K()
		}
		total += k + 1
		if c.Verify {
			total++
		}
		if c.CaptureStale {
			total++
		}
	}
	return total
}

// StandardScheme3 builds the 3-iteration recipe reproducing the
// paper's "specific TDB" requirement for generator polynomial g:
//
//	it.1  ascending,  seed Init (all ones), plain automaton
//	it.2  ascending,  complemented seed with affine offset 2^m-1 — its
//	      TDB is the exact bitwise complement of it.1's, so after the
//	      two iterations every bit of every cell has held both 0 and 1
//	      and made both transitions (full SAF/TF excitation)
//	it.3  descending with a phase-shifted seed, reversing the
//	      aggressor/victim order seen by coupling and decoder faults
//
// Verify (full read-back) is enabled on every iteration: the paper's
// quality argument assumes stored errors reach the observer, and the
// read-back removes the blind spot for victim cells the walk has
// already passed (see EXPERIMENTS.md E4/E5 for the measured effect of
// signature-only checking).
func StandardScheme3(g lfsr.GenPoly) Scheme {
	s := buildScheme(g, 3)
	s.Name = "PRT-3"
	return s
}

// StandardScheme4 extends StandardScheme3 with a fourth iteration
// (descending, complement of it.3's TDB), which closes the remaining
// coupling excitation gaps of the 3-iteration recipe.
func StandardScheme4(g lfsr.GenPoly) Scheme {
	s := buildScheme(g, 4)
	s.Name = "PRT-4"
	return s
}

// SignatureOnly returns a copy of the scheme with the Verify read-back
// and transparent stale capture disabled on every iteration — the
// paper's pure Fin-vs-Fin* comparator, used by the ablation
// experiments.
func (s Scheme) SignatureOnly() Scheme {
	out := Scheme{Name: s.Name + "/sig", Iters: append([]Config(nil), s.Iters...)}
	for i := range out.Iters {
		out.Iters[i].Verify = false
		out.Iters[i].CaptureStale = false
	}
	return out
}

func buildScheme(g lfsr.GenPoly, iters int) Scheme {
	f := g.Field
	k := g.K()
	mask := f.Mask()
	// Alternating nonzero/zero seed: adjacent seed cells must differ so
	// a stuck-open first cell cannot alias to its neighbour's sensed
	// value (an all-ones seed lets SOF@cell0 escape every iteration).
	seed1 := make([]gf.Elem, k)
	for i := range seed1 {
		if i%2 == 0 {
			seed1[i] = 1
		}
	}
	seed2 := complementSeed(seed1, mask)
	all := []Config{
		// it.1: plain TDB, ascending.
		{Gen: g, Seed: seed1, Trajectory: Ascending, Verify: true, CaptureStale: true},
		// it.2: exact complement TDB (affine offset), ascending —
		// every bit now held 0 and 1 and transitioned once.
		{Gen: g, Seed: seed2, Offset: mask, Trajectory: Ascending, Verify: true, CaptureStale: true},
		// it.3: mirror of it.1 — rewrites TDB1 descending, forcing the
		// opposite transition on every bit and reversing the
		// aggressor/victim order for coupling and decoder faults.
		Mirrored(0, true),
		// it.4: mirror of it.2 — the complement TDB descending.
		Mirrored(1, true),
	}
	for i := range all {
		all[i].CaptureStale = true
	}
	if iters > len(all) {
		iters = len(all)
	}
	return Scheme{Iters: all[:iters]}
}

func complementSeed(seed []gf.Elem, mask gf.Elem) []gf.Elem {
	out := make([]gf.Elem, len(seed))
	for i := range out {
		out[i] = seed[i] ^ mask
	}
	return out
}

// ExtendedScheme builds blocks of four iterations (ascending TDBφ,
// ascending ¬TDBφ, and their two mirrors) for successive phase shifts
// φ of the automaton orbit.  Each extra block exposes every
// (aggressor, victim) cell pair to new value combinations, so coverage
// of idempotent and state coupling faults climbs towards 100% with the
// block count — the quantitative form of the paper's §3 observation
// that initial values are a controllable quality factor.
func ExtendedScheme(g lfsr.GenPoly, blocks int) Scheme {
	if blocks < 1 {
		blocks = 1
	}
	mask := g.Field.Mask()
	k := g.K()
	seed := make([]gf.Elem, k)
	for i := range seed {
		if i%2 == 0 {
			seed[i] = 1
		}
	}
	s := Scheme{Name: fmt.Sprintf("PRT-x%d", blocks)}
	prev := seed
	for b := 0; b < blocks; b++ {
		base := len(s.Iters)
		s.Iters = append(s.Iters,
			Config{Gen: g, Seed: prev, Trajectory: Ascending, Verify: true, CaptureStale: true},
			Config{Gen: g, Seed: complementSeed(prev, mask), Offset: mask, Trajectory: Ascending, Verify: true, CaptureStale: true},
			Mirrored(base, true),
			Mirrored(base+1, true),
		)
		s.Iters[len(s.Iters)-2].CaptureStale = true
		s.Iters[len(s.Iters)-1].CaptureStale = true
		prev = nextPhase(g, prev, prev)
	}
	return s
}

// nextPhase walks the plain (q = 0) orbit of `from` and returns the
// first nonzero state distinct from both arguments; if the orbit is too
// short it returns `from` unchanged.
func nextPhase(g lfsr.GenPoly, from, avoid []gf.Elem) []gf.Elem {
	w := lfsr.MustAffine(g, 0, from)
	bits := g.Field.M() * g.K()
	if bits > 20 {
		bits = 20 // a distinct phase appears within a few steps anyway
	}
	bound := uint64(1) << uint(bits)
	for i := uint64(0); i < bound; i++ {
		w.Step()
		s := w.State()
		if !slices.Equal(s, from) && !slices.Equal(s, avoid) && !allZeroElems(s) {
			return s
		}
	}
	return from
}

func allZeroElems(s []gf.Elem) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// PaperBOMScheme3 is StandardScheme3 for the bit-oriented example
// automaton g(x) = 1 + x + x².
func PaperBOMScheme3() Scheme { return StandardScheme3(PaperBOMConfig().Gen) }

// PaperWOMScheme3 is StandardScheme3 for the paper's word-oriented
// example automaton g(x) = 1 + 2x + 2x² over GF(2⁴).
func PaperWOMScheme3() Scheme { return StandardScheme3(PaperWOMConfig().Gen) }
