package prt

import (
	"fmt"
	"slices"

	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/ram"
)

// DualPortResult reports a dual-port π-iteration (the Fig. 2 scheme).
type DualPortResult struct {
	Fin      []gf.Elem
	FinStar  []gf.Elem
	Detected bool
	// Cycles is the number of memory cycles consumed — the paper's §4
	// claim is 2n for the two-term scheme, versus 3n single-port
	// operations.
	Cycles uint64
}

// RunDualPort executes one π-test iteration on a two-port memory using
// the scheme of Fig. 2 of the paper, for a two-term generator
// polynomial (k = 2): in each step the two reads of the sub-iteration
// {r_i, r_{i+1}, w_{i+2}} are carried out *simultaneously* on the two
// ports, and the write takes the second cycle, giving 2 cycles per
// cell instead of 3 operations:
//
//	cycle 2t   : port A reads c_i        port B reads c_{i+1}
//	cycle 2t+1 : port A writes c_{i+2}   port B idle
//
// Only the Addresses trajectory of cfg is honoured; the generator and
// seed have the same roles as in RunIteration.
func RunDualPort(cfg Config, mp *ram.MultiPort) (DualPortResult, error) {
	if mp.Ports() < 2 {
		return DualPortResult{}, fmt.Errorf("prt: dual-port scheme needs >= 2 ports, have %d", mp.Ports())
	}
	if cfg.Gen.K() != 2 {
		return DualPortResult{}, fmt.Errorf("prt: Fig. 2 scheme requires a two-term g(x) (k=2), got k=%d", cfg.Gen.K())
	}
	if err := cfg.Validate(mp.Size(), mp.Width()); err != nil {
		return DualPortResult{}, err
	}
	f := cfg.Gen.Field
	taps := cfg.Gen.Taps() // a₁, a₂
	n := mp.Size()
	addr := cfg.Addresses(n)
	start := mp.Cycles
	var res DualPortResult

	idleOps := func() []ram.PortOp {
		ops := make([]ram.PortOp, mp.Ports())
		for i := range ops {
			ops[i] = ram.Idle()
		}
		return ops
	}

	// Seed both initial cells in one cycle — two ports, two writes.
	ops := idleOps()
	ops[0] = ram.WriteOp(addr[0], ram.Word(cfg.Seed[0]))
	ops[1] = ram.WriteOp(addr[1], ram.Word(cfg.Seed[1]))
	mp.Cycle(ops)

	for i := 2; i < n; i++ {
		// Cycle 1: simultaneous reads of the two predecessor cells.
		ops = idleOps()
		ops[0] = ram.ReadOp(addr[i-2])
		ops[1] = ram.ReadOp(addr[i-1])
		vals := mp.Cycle(ops)
		next := cfg.Offset
		next = f.Add(next, f.Mul(taps[0], gf.Elem(vals[1])))
		next = f.Add(next, f.Mul(taps[1], gf.Elem(vals[0])))
		// Cycle 2: write through port A.
		ops = idleOps()
		ops[0] = ram.WriteOp(addr[i], ram.Word(next))
		mp.Cycle(ops)
	}
	// Observe Fin with one final double-read cycle.
	ops = idleOps()
	ops[0] = ram.ReadOp(addr[n-2])
	ops[1] = ram.ReadOp(addr[n-1])
	vals := mp.Cycle(ops)
	res.Fin = []gf.Elem{gf.Elem(vals[0]), gf.Elem(vals[1])}

	finStar, err := lfsr.AffineJumpAhead(cfg.Gen, cfg.Offset, cfg.Seed, uint64(n-2))
	if err != nil {
		return res, err
	}
	res.FinStar = finStar
	res.Detected = !slices.Equal(res.Fin, res.FinStar)
	res.Cycles = mp.Cycles - start
	return res, nil
}

// DualPortScheme3 runs the 3-iteration standard scheme through the
// dual-port executor and merges detection.  Mirror placeholders are
// resolved against the memory size; the Verify/CaptureStale options of
// the single-port scheme do not apply (the Fig. 2 scheme is the pure
// signature pipeline).
func DualPortScheme3(g lfsr.GenPoly, mp *ram.MultiPort) (detected bool, cycles uint64, err error) {
	iters, err := StandardScheme3(g).Resolve(mp.Size())
	if err != nil {
		return detected, cycles, err
	}
	for i, cfg := range iters {
		cfg.Verify = false
		cfg.CaptureStale = false
		r, err := RunDualPort(cfg, mp)
		if err != nil {
			return detected, cycles, fmt.Errorf("prt: dual-port iteration %d: %w", i+1, err)
		}
		cycles += r.Cycles
		if r.Detected {
			detected = true
		}
	}
	return detected, cycles, nil
}
