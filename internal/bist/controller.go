package bist

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/prt"
	"repro/internal/ram"
)

// State is the controller FSM state.
type State int

// FSM states of the PRT BIST controller.
const (
	StateIdle State = iota
	StateSeed
	StateReadOps // reading the k recurrence operands
	StateWrite   // writing the recurrence value
	StateFinRead // reading back the final window
	StateCompare // comparing Fin with Fin*
	StateDone
	StateFail
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateSeed:
		return "seed"
	case StateReadOps:
		return "read"
	case StateWrite:
		return "write"
	case StateFinRead:
		return "fin-read"
	case StateCompare:
		return "compare"
	case StateDone:
		return "done"
	case StateFail:
		return "fail"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Controller is a cycle-stepped model of the on-chip PRT engine: one
// memory operation (or one compare) per Step call, mirroring the
// hardware the Budget accounts for.  It executes a single signature
// π-iteration; the multi-iteration sequencing is a trivial outer loop
// (see RunAllCompressed).
type Controller struct {
	cfg   prt.Config
	mem   ram.Memory
	state State

	addr    []int
	k       int
	pos     int // current trajectory position
	operand int // which of the k operands is being read
	acc     gf.Elem
	fin     []gf.Elem
	finStar []gf.Elem
	finPos  int

	// Signature compression (NewCompressedController): every read
	// folds into misr, and StateCompare tests the signature against
	// sigStar instead of comparing the final window per word.  The
	// fold matrices and observer id annotate replay traces.
	misr     *MISR
	sigStar  gf.Elem
	obs      int
	stepRows []uint32
	tapRows  []uint32

	// Replay annotation of the recurrence write as a GF(2)-affine map
	// of the k operand reads, built only when mem records a trace.
	linBack []int
	linRows [][]uint32

	// Cycles counts Step calls since reset.
	Cycles uint64
}

// NewController builds a controller for one iteration of cfg on mem.
// Ring and Verify/CaptureStale options are not modelled by the FSM
// (the budget covers the plain signature engine).
func NewController(cfg prt.Config, mem ram.Memory) (*Controller, error) {
	if cfg.Ring || cfg.Verify || cfg.CaptureStale {
		return nil, fmt.Errorf("bist: controller models the plain signature iteration only")
	}
	if err := cfg.Validate(mem.Size(), mem.Width()); err != nil {
		return nil, err
	}
	finStar, err := lfsr.AffineJumpAhead(cfg.Gen, cfg.Offset, cfg.Seed, uint64(mem.Size()-cfg.Gen.K()))
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:     cfg,
		mem:     mem,
		state:   StateSeed,
		addr:    cfg.Addresses(mem.Size()),
		k:       cfg.Gen.K(),
		fin:     make([]gf.Elem, 0, cfg.Gen.K()),
		finStar: finStar,
	}
	if _, tracing := mem.(ram.TraceAnnotator); tracing {
		// Operand j (read order: most recent trajectory cell first) is
		// the (k-j)-th most recent read when the write executes.
		c.linBack = make([]int, c.k)
		for j := 0; j < c.k; j++ {
			c.linBack[j] = c.k - j
		}
		c.linRows = cfg.Gen.TapRows()
	}
	return c, nil
}

// NewCompressedController builds a controller whose observer is a MISR
// compressing every read — the k recurrence operands of each step and
// the final window — into one m-bit signature, compared in
// StateCompare against the prediction computed on the virtual
// automaton model.  This is the §4 BIST observer with its real ≈2^-m
// aliasing: a multi-read error pattern that cancels in the register
// passes.  alpha is the MISR multiplier (0 selects the field
// generator); obs identifies the signature observer in a recorded
// replay trace and must be unique per iteration of a scheme.
func NewCompressedController(cfg prt.Config, mem ram.Memory, alpha gf.Elem, obs int) (*Controller, error) {
	c, err := NewController(cfg, mem)
	if err != nil {
		return nil, err
	}
	m, err := NewMISR(cfg.Gen.Field, alpha)
	if err != nil {
		return nil, err
	}
	c.misr = m
	c.obs = obs
	c.stepRows, c.tapRows = m.FoldMatrices()
	// Predict the clean signature from the model alone: every read the
	// FSM performs targets a cell written earlier in this iteration, so
	// its fault-free value is the TDB sequence element of that
	// trajectory position.
	pred, err := NewMISR(cfg.Gen.Field, alpha)
	if err != nil {
		return nil, err
	}
	n := mem.Size()
	seq := prt.ExpectedSequence(cfg, n)
	for pos := c.k; pos < n; pos++ {
		for operand := 0; operand < c.k; operand++ {
			pred.Feed(seq[pos-1-operand]) // most recent operand first
		}
	}
	for i := 0; i < c.k; i++ {
		pred.Feed(seq[n-c.k+i])
	}
	c.sigStar = pred.Signature()
	return c, nil
}

// fold feeds one read value into the signature register and annotates
// a replay trace, when recording, with the equivalent GF(2) fold.
func (c *Controller) fold(v gf.Elem) {
	c.misr.Feed(v)
	ram.AnnotateFold(c.mem, c.obs, c.stepRows, c.tapRows)
}

// State returns the current FSM state.
func (c *Controller) State() State { return c.state }

// Done reports whether the FSM reached a terminal state.
func (c *Controller) Done() bool { return c.state == StateDone || c.state == StateFail }

// Failed reports whether the signature comparison failed.
func (c *Controller) Failed() bool { return c.state == StateFail }

// Step advances one clock: exactly one memory operation or one
// comparison per call.
func (c *Controller) Step() {
	if c.Done() {
		return
	}
	c.Cycles++
	f := c.cfg.Gen.Field
	taps := c.cfg.Gen.Taps()
	n := c.mem.Size()
	switch c.state {
	case StateSeed:
		c.mem.Write(c.addr[c.pos], ram.Word(c.cfg.Seed[c.pos]))
		c.pos++
		if c.pos == c.k {
			c.state = StateReadOps
			c.operand = 0
			c.acc = c.cfg.Offset
		}
	case StateReadOps:
		// Read operand c_{pos-1-operand} (most recent first).
		v := gf.Elem(c.mem.Read(c.addr[c.pos-1-c.operand]))
		if c.misr != nil {
			c.fold(v)
		}
		c.acc = f.Add(c.acc, f.Mul(taps[c.operand], v))
		c.operand++
		if c.operand == c.k {
			c.state = StateWrite
		}
	case StateWrite:
		c.mem.Write(c.addr[c.pos], ram.Word(c.acc))
		if c.linBack != nil {
			ram.AnnotateLinear(c.mem, c.linBack, c.linRows, ram.Word(c.cfg.Offset))
		}
		c.pos++
		if c.pos == n {
			c.state = StateFinRead
			c.finPos = 0
		} else {
			c.state = StateReadOps
			c.operand = 0
			c.acc = c.cfg.Offset
		}
	case StateFinRead:
		v := gf.Elem(c.mem.Read(c.addr[n-c.k+c.finPos]))
		if c.misr != nil {
			c.fold(v)
		} else {
			// The plain FSM compares each Fin word against the model,
			// so the read is a checked read in replay terms.
			ram.AnnotateChecked(c.mem)
		}
		c.fin = append(c.fin, v)
		c.finPos++
		if c.finPos == c.k {
			c.state = StateCompare
		}
	case StateCompare:
		if c.misr != nil {
			ram.AnnotateObserved(c.mem, c.obs)
			if c.misr.Signature() != c.sigStar {
				c.state = StateFail
				return
			}
			c.state = StateDone
			return
		}
		for i := range c.fin {
			if c.fin[i] != c.finStar[i] {
				c.state = StateFail
				return
			}
		}
		c.state = StateDone
	}
}

// Run steps the FSM to completion and returns whether the iteration
// passed (signature matched).
func (c *Controller) Run() bool {
	for !c.Done() {
		c.Step()
	}
	return c.state == StateDone
}

// RunAllCompressed sequences a MISR-compressed controller (observer id
// = iteration index) over every iteration of a scheme's resolved
// configurations, returning pass/fail and total cycles.  Mirror
// placeholders are resolved against the memory size (prt's
// Scheme.Resolve); the verify/capture options are stripped (the FSM
// models the signature engine the Budget prices).  Detection carries
// the register's ≈2^-m aliasing instead of the exact per-word Fin
// comparison.  alpha 0 selects the field generator.
func RunAllCompressed(s prt.Scheme, mem ram.Memory, alpha gf.Elem) (pass bool, cycles uint64, err error) {
	return runAll(s, mem, func(cfg prt.Config, i int) (*Controller, error) {
		return NewCompressedController(cfg, mem, alpha, i)
	})
}

// runAll resolves the scheme's configurations and steps one controller
// per iteration, built by the supplied constructor.
func runAll(s prt.Scheme, mem ram.Memory, build func(cfg prt.Config, iter int) (*Controller, error)) (pass bool, cycles uint64, err error) {
	iters, err := s.Resolve(mem.Size())
	if err != nil {
		return false, 0, err
	}
	pass = true
	for i, cfg := range iters {
		cfg.Verify = false
		cfg.CaptureStale = false
		cfg.StaleExpect = nil
		ctl, err := build(cfg, i)
		if err != nil {
			return false, cycles, err
		}
		ok := ctl.Run()
		cycles += ctl.Cycles
		if !ok {
			pass = false
		}
	}
	return pass, cycles, nil
}
