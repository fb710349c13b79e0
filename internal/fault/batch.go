// Batch-injection hooks: the OnRead/PreWrite/PostWrite implementations
// below run inside the replay kernels' per-operation loops, so the
// whole file is on the zero-allocation hot path.
//
//faultsim:hotpath

package fault

import (
	"repro/internal/ram"
)

// This file is the batch-injection capability layer used by the
// bit-parallel fault-simulation engine (package sim).  The engine
// simulates up to 64 faulty machines at once: each cell-bit of the
// memory is a uint64 "lane word" whose bit l holds that bit's value in
// machine l.  Because every campaign injects exactly one fault per
// machine, the hooks installed for different lanes operate on disjoint
// lane bits and never interact — exactly mirroring the single-fault
// decorator wrappers of Inject.
//
// The interfaces live here (not in sim) so the fault models can
// describe their own batched semantics without an import cycle: sim
// imports fault, and fault only needs ram.

// LaneMemory is the bit-sliced storage of up to 64 simultaneously
// simulated machines.
type LaneMemory interface {
	// Size returns the number of cells.
	Size() int
	// Width returns the cell width in bits.
	Width() int
	// StoredLane returns the lane word of stored bit (cell, bit): bit
	// l of the result is machine l's stored value of that cell-bit.
	StoredLane(cell, bit int) uint64
	// SetStoredLane replaces, for the machines selected by mask, the
	// stored bit (cell, bit) with the corresponding bits of value.
	SetStoredLane(cell, bit int, value, mask uint64)
	// Clock returns the number of memory operations performed so far,
	// including the one currently executing — the op counter the DRF
	// decay model ticks on.
	Clock() uint64
}

// WriteHook intercepts writes to a hooked cell.  data[b] is the lane
// word of bit b of the value being written (identical across machines
// for literal stimuli, per-machine for replayed recurrence writes).
// PreWrite runs before the engine stores data; PostWrite runs after,
// so a hook can capture pre-write state and then patch its own
// machine's outcome.
type WriteHook interface {
	PreWrite(m LaneMemory, cell int, data []uint64)
	PostWrite(m LaneMemory, cell int, data []uint64)
}

// ReadHook adjusts the sensed value of a read.  val[b] is the lane
// word of bit b about to be returned; hooks mutate their own machine's
// lane bits in place.
type ReadHook interface {
	OnRead(m LaneMemory, cell int, val []uint64)
}

// HookRegistry is the machine array as seen by BatchInject: lane
// storage plus hook registration.
type HookRegistry interface {
	LaneMemory
	// OnWriteTo runs h around every write to cell.
	OnWriteTo(cell int, h WriteHook)
	// OnReadOf runs h on every read of cell.
	OnReadOf(cell int, h ReadHook)
	// OnEveryRead runs h on every read of any cell (the stuck-open
	// sense-amplifier model needs to observe the full read stream).
	OnEveryRead(h ReadHook)
}

// BatchInjector is the batch-simulation capability: a fault that can
// install its behaviour for one machine lane of a bit-parallel array.
// All concrete fault types of this package implement it; the installed
// hooks reproduce the corresponding Inject wrapper exactly.  Hook
// objects come from p, the injecting worker's Pool (never nil), so
// steady-state batches allocate nothing.
type BatchInjector interface {
	Fault
	BatchInject(reg HookRegistry, lane int, p *Pool)
}

// laneWord assembles machine lane's bits of cell into a Word.
func laneWord(m LaneMemory, cell, lane int) ram.Word {
	var w ram.Word
	for b := 0; b < m.Width(); b++ {
		w |= ram.Word(m.StoredLane(cell, b)>>uint(lane)&1) << uint(b)
	}
	return w
}

// setLaneWord writes machine lane's bits of cell from w.
func setLaneWord(m LaneMemory, cell, lane int, w ram.Word) {
	mask := uint64(1) << uint(lane)
	for b := 0; b < m.Width(); b++ {
		m.SetStoredLane(cell, b, uint64(w>>uint(b)&1)<<uint(lane), mask)
	}
}

// dataWord assembles machine lane's bits of a data lane slice.
func dataWord(data []uint64, lane int) ram.Word {
	var w ram.Word
	for b, d := range data {
		w |= ram.Word(d>>uint(lane)&1) << uint(b)
	}
	return w
}

// --- SAF ---

type safHook struct {
	bit   int
	force uint64 // lane-positioned stuck value
	mask  uint64
}

func (h *safHook) PreWrite(LaneMemory, int, []uint64) {}

func (h *safHook) PostWrite(m LaneMemory, cell int, _ []uint64) {
	m.SetStoredLane(cell, h.bit, h.force, h.mask)
}

// BatchInject implements BatchInjector.  The stored bit is
// forced at install time (power-on) and re-forced after every write, so
// reads — which sense the stored lane — always observe the stuck value.
func (f SAF) BatchInject(reg HookRegistry, lane int, p *Pool) {
	mask := uint64(1) << uint(lane)
	var force uint64
	if f.Value&1 == 1 {
		force = mask
	}
	reg.SetStoredLane(f.Cell, f.Bit, force, mask)
	h := p.saf.get()
	h.bit, h.force, h.mask = f.Bit, force, mask
	reg.OnWriteTo(f.Cell, h)
}

// --- TF ---

type tfHook struct {
	bit  int
	up   bool
	mask uint64
	old  uint64
}

func (h *tfHook) PreWrite(m LaneMemory, cell int, _ []uint64) {
	h.old = m.StoredLane(cell, h.bit) & h.mask
}

func (h *tfHook) PostWrite(m LaneMemory, cell int, data []uint64) {
	nb := data[h.bit] & h.mask
	if h.up && h.old == 0 && nb != 0 {
		m.SetStoredLane(cell, h.bit, 0, h.mask) // rise blocked
	} else if !h.up && h.old != 0 && nb == 0 {
		m.SetStoredLane(cell, h.bit, h.mask, h.mask) // fall blocked
	}
}

// BatchInject implements BatchInjector.
func (f TF) BatchInject(reg HookRegistry, lane int, p *Pool) {
	h := p.tf.get()
	h.bit, h.up, h.mask = f.Bit, f.Up, uint64(1)<<uint(lane)
	reg.OnWriteTo(f.Cell, h)
}

// --- SOF ---

type sofHook struct {
	cell     int
	lane     int
	mask     uint64
	lastRead ram.Word
	saved    ram.Word
}

func (h *sofHook) PreWrite(m LaneMemory, cell int, _ []uint64) {
	h.saved = laneWord(m, cell, h.lane)
}

func (h *sofHook) PostWrite(m LaneMemory, cell int, _ []uint64) {
	setLaneWord(m, cell, h.lane, h.saved) // write lost
}

func (h *sofHook) OnRead(m LaneMemory, cell int, val []uint64) {
	if cell == h.cell {
		// The disconnected cell returns the previous sensed value.
		for b := range val {
			val[b] = val[b]&^h.mask | uint64(h.lastRead>>uint(b)&1)<<uint(h.lane)
		}
		return
	}
	var w ram.Word
	for b, d := range val {
		w |= ram.Word(d>>uint(h.lane)&1) << uint(b)
	}
	h.lastRead = w
}

// BatchInject implements BatchInjector.
func (f SOF) BatchInject(reg HookRegistry, lane int, p *Pool) {
	h := p.sof.get()
	h.cell, h.lane, h.mask = f.Cell, lane, uint64(1)<<uint(lane)
	reg.OnWriteTo(f.Cell, h)
	reg.OnEveryRead(h)
}

// --- DRF ---

type drfHook struct {
	bit       int
	decay     uint64 // lane-positioned decay value
	mask      uint64
	delay     uint64
	lastWrite uint64
}

func (h *drfHook) PreWrite(LaneMemory, int, []uint64) {}

func (h *drfHook) PostWrite(m LaneMemory, _ int, _ []uint64) {
	h.lastWrite = m.Clock()
}

func (h *drfHook) OnRead(m LaneMemory, cell int, val []uint64) {
	if m.Clock()-h.lastWrite > h.delay {
		val[h.bit] = val[h.bit]&^h.mask | h.decay
		m.SetStoredLane(cell, h.bit, h.decay, h.mask) // the charge is really gone
	}
}

// BatchInject implements BatchInjector.
func (f DRF) BatchInject(reg HookRegistry, lane int, p *Pool) {
	mask := uint64(1) << uint(lane)
	var decay uint64
	if f.Decay&1 == 1 {
		decay = mask
	}
	h := p.drf.get()
	h.bit, h.decay, h.mask, h.delay = f.Bit, decay, mask, f.Delay
	reg.OnWriteTo(f.Cell, h)
	reg.OnReadOf(f.Cell, h)
}

// --- AF ---

type afHook struct {
	f    AF
	lane int
	mask uint64
	old  ram.Word
}

func (h *afHook) PreWrite(m LaneMemory, cell int, _ []uint64) {
	if h.f.Kind != AFMulti {
		h.old = laneWord(m, cell, h.lane)
	}
}

func (h *afHook) PostWrite(m LaneMemory, cell int, data []uint64) {
	switch h.f.Kind {
	case AFNone:
		setLaneWord(m, cell, h.lane, h.old) // write lost
	case AFAlias:
		setLaneWord(m, cell, h.lane, h.old) // own cell untouched…
		setLaneWord(m, h.f.Target, h.lane, dataWord(data, h.lane))
	default: // AFMulti: both cells written
		setLaneWord(m, h.f.Target, h.lane, dataWord(data, h.lane))
	}
}

func (h *afHook) OnRead(m LaneMemory, _ int, val []uint64) {
	switch h.f.Kind {
	case AFNone:
		for b := range val {
			val[b] &^= h.mask // discharged bit lines
		}
	case AFAlias:
		for b := range val {
			val[b] = val[b]&^h.mask | m.StoredLane(h.f.Target, b)&h.mask
		}
	default: // AFMulti: wired-OR of both activated cells
		for b := range val {
			val[b] |= m.StoredLane(h.f.Target, b) & h.mask
		}
	}
}

// BatchInject implements BatchInjector.
func (f AF) BatchInject(reg HookRegistry, lane int, p *Pool) {
	h := p.af.get()
	h.f, h.lane, h.mask = f, lane, uint64(1)<<uint(lane)
	reg.OnWriteTo(f.Addr, h)
	reg.OnReadOf(f.Addr, h)
}

// --- CFin ---

type cfinHook struct {
	f    CFin
	mask uint64
	old  uint64
}

func (h *cfinHook) PreWrite(m LaneMemory, cell int, _ []uint64) {
	h.old = m.StoredLane(cell, h.f.AggBit) & h.mask
}

func (h *cfinHook) PostWrite(m LaneMemory, _ int, data []uint64) {
	nb := data[h.f.AggBit] & h.mask
	if !laneTriggered(h.old, nb, h.f.Up) {
		return
	}
	// Intra-word and inter-word collapse to the same patch: after the
	// broadcast store the victim bit holds the just-written (or still
	// stored) value, and the coupling inverts it.
	cur := m.StoredLane(h.f.VicCell, h.f.VicBit)
	m.SetStoredLane(h.f.VicCell, h.f.VicBit, ^cur, h.mask)
}

// BatchInject implements BatchInjector.
func (f CFin) BatchInject(reg HookRegistry, lane int, p *Pool) {
	h := p.cfin.get()
	h.f, h.mask = f, uint64(1)<<uint(lane)
	reg.OnWriteTo(f.AggCell, h)
}

// --- CFid ---

type cfidHook struct {
	f     CFid
	force uint64 // lane-positioned forced value
	mask  uint64
	old   uint64
}

func (h *cfidHook) PreWrite(m LaneMemory, cell int, _ []uint64) {
	h.old = m.StoredLane(cell, h.f.AggBit) & h.mask
}

func (h *cfidHook) PostWrite(m LaneMemory, _ int, data []uint64) {
	nb := data[h.f.AggBit] & h.mask
	if laneTriggered(h.old, nb, h.f.Up) {
		m.SetStoredLane(h.f.VicCell, h.f.VicBit, h.force, h.mask)
	}
}

// BatchInject implements BatchInjector.
func (f CFid) BatchInject(reg HookRegistry, lane int, p *Pool) {
	mask := uint64(1) << uint(lane)
	var force uint64
	if f.Value&1 == 1 {
		force = mask
	}
	h := p.cfid.get()
	h.f, h.force, h.mask = f, force, mask
	reg.OnWriteTo(f.AggCell, h)
}

// --- CFst ---

type cfstHook struct {
	f     CFst
	force uint64
	mask  uint64
}

func (h *cfstHook) OnRead(m LaneMemory, _ int, val []uint64) {
	agg := m.StoredLane(h.f.AggCell, h.f.AggBit) & h.mask
	active := agg != 0
	if h.f.AggValue&1 == 0 {
		active = !active
	}
	if active {
		val[h.f.VicBit] = val[h.f.VicBit]&^h.mask | h.force
	}
}

// BatchInject implements BatchInjector.  The forcing is level-
// sensitive and applied to the sensed value only, as in the Inject
// wrapper.
func (f CFst) BatchInject(reg HookRegistry, lane int, p *Pool) {
	mask := uint64(1) << uint(lane)
	var force uint64
	if f.Value&1 == 1 {
		force = mask
	}
	h := p.cfst.get()
	h.f, h.force, h.mask = f, force, mask
	reg.OnReadOf(f.VicCell, h)
}

// --- BF ---

type bfHook struct {
	f    BF
	mask uint64
}

func (h *bfHook) OnRead(m LaneMemory, cell int, val []uint64) {
	a := m.StoredLane(h.f.CellA, h.f.BitA) & h.mask
	b := m.StoredLane(h.f.CellB, h.f.BitB) & h.mask
	var wired uint64
	if h.f.And {
		wired = a & b
	} else {
		wired = a | b
	}
	if cell == h.f.CellA {
		val[h.f.BitA] = val[h.f.BitA]&^h.mask | wired
	}
	if cell == h.f.CellB {
		val[h.f.BitB] = val[h.f.BitB]&^h.mask | wired
	}
}

// BatchInject implements BatchInjector.
func (f BF) BatchInject(reg HookRegistry, lane int, p *Pool) {
	h := p.bf.get()
	h.f, h.mask = f, uint64(1)<<uint(lane)
	reg.OnReadOf(f.CellA, h)
	if f.CellB != f.CellA {
		reg.OnReadOf(f.CellB, h)
	}
}

// --- SNPSF ---

type snpsfHook struct {
	f     SNPSF
	force uint64
	mask  uint64
}

func (h *snpsfHook) OnRead(m LaneMemory, _ int, val []uint64) {
	order := [4]int{h.f.Nb.N, h.f.Nb.E, h.f.Nb.S, h.f.Nb.W}
	for i, c := range order {
		want := uint64(h.f.Pattern>>uint(i)) & 1
		if c < 0 {
			return // incomplete neighbourhood never matches
		}
		if (m.StoredLane(c, 0)&h.mask != 0) != (want == 1) {
			return
		}
	}
	val[0] = val[0]&^h.mask | h.force
}

// BatchInject implements BatchInjector.
func (f SNPSF) BatchInject(reg HookRegistry, lane int, p *Pool) {
	mask := uint64(1) << uint(lane)
	var force uint64
	if f.Value&1 == 1 {
		force = mask
	}
	h := p.snpsf.get()
	h.f, h.force, h.mask = f, force, mask
	reg.OnReadOf(f.Nb.Base, h)
}

// --- ANPSF ---

type anpsfHook struct {
	f     ANPSF
	force uint64
	mask  uint64
	old   uint64
}

func (h *anpsfHook) PreWrite(m LaneMemory, cell int, _ []uint64) {
	h.old = m.StoredLane(cell, 0) & h.mask
}

func (h *anpsfHook) PostWrite(m LaneMemory, _ int, data []uint64) {
	nb := data[0] & h.mask
	if !laneTriggered(h.old, nb, h.f.Up) {
		return
	}
	order := [4]int{h.f.Nb.N, h.f.Nb.E, h.f.Nb.S, h.f.Nb.W}
	for i, c := range order {
		if i == h.f.Trigger {
			continue
		}
		want := uint64(h.f.Pattern>>uint(i)) & 1
		if c < 0 || (m.StoredLane(c, 0)&h.mask != 0) != (want == 1) {
			return
		}
	}
	m.SetStoredLane(h.f.Nb.Base, 0, h.force, h.mask)
}

// BatchInject implements BatchInjector.
func (f ANPSF) BatchInject(reg HookRegistry, lane int, p *Pool) {
	order := [4]int{f.Nb.N, f.Nb.E, f.Nb.S, f.Nb.W}
	trig := order[f.Trigger]
	if trig < 0 {
		return // no trigger neighbour: the fault never fires
	}
	mask := uint64(1) << uint(lane)
	var force uint64
	if f.Value&1 == 1 {
		force = mask
	}
	h := p.anpsf.get()
	h.f, h.force, h.mask = f, force, mask
	reg.OnWriteTo(trig, h)
}

// laneTriggered reports whether a single machine's old→new bit pair
// (both already masked to the machine's lane) is the watched
// transition.
func laneTriggered(old, new uint64, up bool) bool {
	if up {
		return old == 0 && new != 0
	}
	return old != 0 && new == 0
}
