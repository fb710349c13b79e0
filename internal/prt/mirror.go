package prt

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/lfsr"
)

// MirrorConfig builds the direction-reversed twin of src for a memory
// of n cells: an iteration that writes the exact same value into every
// cell as src does, but visits the cells in the opposite order.
//
// If src generates u_0 … u_{n-1} along its trajectory, the mirror
// generates v_s = u_{n-1-s} along the reversed trajectory.  The
// reversed sequence of an affine recurrence
//
//	u_t = a₁u_{t-1} ⊕ … ⊕ a_k u_{t-k} ⊕ q
//
// satisfies the reciprocal affine recurrence
//
//	v_s = (a_{k-1}/a_k)v_{s-1} ⊕ … ⊕ (a₁/a_k)v_{s-k+1} ⊕ (1/a_k)v_{s-k} ⊕ q/a_k
//
// seeded with (u_{n-1}, …, u_{n-k}) — i.e. src's final window reversed.
//
// Mirrors matter for the 3-iteration scheme: writing the same TDB in
// the opposite direction makes every bit of every cell repeat the
// transition it made when the TDB was first written (covering the
// remaining transition faults) while reversing the aggressor→victim
// order observed by coupling and decoder faults.
func MirrorConfig(src Config, n int) (Config, error) {
	if src.MirrorOf > 0 {
		return Config{}, fmt.Errorf("prt: cannot mirror a mirror placeholder")
	}
	if src.Ring {
		return Config{}, fmt.Errorf("prt: mirroring ring iterations is not supported")
	}
	if src.Gen.Field == nil {
		return Config{}, fmt.Errorf("prt: cannot mirror a config without a generator polynomial")
	}
	if err := src.Validate(n, src.Gen.Field.M()); err != nil {
		return Config{}, err
	}
	f := src.Gen.Field
	k := src.Gen.K()
	ak := src.Gen.Coeffs[k]
	inv := f.Inv(ak)

	coeffs := make([]gf.Elem, k+1)
	coeffs[0] = 1 // a0 is structural only; the recurrence uses taps 1..k
	for i := 1; i < k; i++ {
		coeffs[i] = f.Mul(src.Gen.Coeffs[k-i], inv)
	}
	coeffs[k] = inv
	gen, err := lfsr.NewGenPoly(f, coeffs)
	if err != nil {
		return Config{}, fmt.Errorf("prt: mirror generator: %w", err)
	}

	// Final window of src: (u_{n-k}, …, u_{n-1}); mirror seed is the
	// reverse.
	final, err := lfsr.AffineJumpAhead(src.Gen, src.Offset, src.Seed, uint64(n-k))
	if err != nil {
		return Config{}, err
	}
	seed := make([]gf.Elem, k)
	for i := range seed {
		seed[i] = final[k-1-i]
	}

	out := Config{
		Gen:        gen,
		Seed:       seed,
		Offset:     f.Mul(src.Offset, inv),
		Trajectory: reverseTrajectory(src.Trajectory),
		PermSeed:   src.PermSeed,
		Verify:     src.Verify,
	}
	return out, nil
}

// Resolve returns the scheme's iterations for a memory of n cells, each
// mirror placeholder (Config.MirrorOf > 0) replaced by the MirrorConfig
// of the resolved iteration it names.  A mirror keeps its placeholder's
// Verify and CaptureStale options.  A placeholder must name an earlier
// iteration: one that names itself, a later iteration or an index past
// the scheme's end is refused with the same error.
func (s Scheme) Resolve(n int) ([]Config, error) {
	out := make([]Config, len(s.Iters))
	for i, cfg := range s.Iters {
		if t := cfg.mirrorTarget(); t >= 0 {
			if t >= i {
				return nil, fmt.Errorf("prt: scheme %q iteration %d mirrors iteration %d, which does not precede it", s.Name, i+1, t+1)
			}
			m, err := MirrorConfig(out[t], n)
			if err != nil {
				return nil, fmt.Errorf("prt: scheme %q iteration %d: %w", s.Name, i+1, err)
			}
			m.Verify = cfg.Verify
			m.CaptureStale = cfg.CaptureStale
			cfg = m
		}
		out[i] = cfg
	}
	return out, nil
}

// reverseTrajectory flips ascending/descending; a Random trajectory
// reverses by revisiting the same permutation backwards, which is
// expressed with the dedicated RandomReversed value.
func reverseTrajectory(t Trajectory) Trajectory {
	switch t {
	case Ascending:
		return Descending
	case Descending:
		return Ascending
	case Random:
		return RandomReversed
	case RandomReversed:
		return Random
	default:
		return Descending
	}
}
