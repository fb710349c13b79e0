package sim

import (
	"fmt"

	"repro/internal/fault"
)

// Array is the bit-sliced machine array: the state of up to 64
// simultaneously simulated faulty machines, each running the same
// operation schedule.  Cell-bit (c, b) across all machines lives in
// one uint64 lane word; fault behaviour is installed per machine lane
// through the fault.BatchInjector hooks.
type Array struct {
	size  int
	width int
	lanes []uint64 // lanes[cell*width+bit]
	clock uint64

	// Hook tables are per-cell slices, not maps: the lookup sits in
	// the innermost replay loop (once per trace op per batch).
	writeHooks [][]fault.WriteHook
	readHooks  [][]fault.ReadHook
	everyRead  []fault.ReadHook

	val  []uint64   // scratch: sensed value lanes of the current read
	pool fault.Pool // the installed hook objects
}

// NewArray builds an array of identical machines initialised from the
// trace's pre-run memory contents.
func NewArray(tr *Trace) *Array {
	a := &Array{
		size:       tr.Size,
		width:      tr.Width,
		lanes:      make([]uint64, tr.Size*tr.Width),
		writeHooks: make([][]fault.WriteHook, tr.Size),
		readHooks:  make([][]fault.ReadHook, tr.Size),
		val:        make([]uint64, tr.Width),
	}
	for c, w := range tr.Init {
		for b := 0; b < tr.Width; b++ {
			if w>>uint(b)&1 == 1 {
				a.lanes[c*tr.Width+b] = ^uint64(0)
			}
		}
	}
	return a
}

// Size implements fault.LaneMemory.
func (a *Array) Size() int { return a.size }

// Width implements fault.LaneMemory.
func (a *Array) Width() int { return a.width }

// Clock implements fault.LaneMemory.
func (a *Array) Clock() uint64 { return a.clock }

// StoredLane implements fault.LaneMemory.
func (a *Array) StoredLane(cell, bit int) uint64 { return a.lanes[cell*a.width+bit] }

// SetStoredLane implements fault.LaneMemory.
func (a *Array) SetStoredLane(cell, bit int, value, mask uint64) {
	idx := cell*a.width + bit
	a.lanes[idx] = a.lanes[idx]&^mask | value&mask
}

// OnWriteTo implements fault.HookRegistry.
func (a *Array) OnWriteTo(cell int, h fault.WriteHook) {
	a.writeHooks[cell] = append(a.writeHooks[cell], h)
}

// OnReadOf implements fault.HookRegistry.
func (a *Array) OnReadOf(cell int, h fault.ReadHook) {
	a.readHooks[cell] = append(a.readHooks[cell], h)
}

// OnEveryRead implements fault.HookRegistry.
func (a *Array) OnEveryRead(h fault.ReadHook) {
	a.everyRead = append(a.everyRead, h)
}

// Inject installs each fault on its machine lane.  All faults must
// implement fault.BatchInjector.
func (a *Array) Inject(faults []fault.Fault) error {
	if len(faults) > 64 {
		return fmt.Errorf("sim: batch of %d faults exceeds the 64 machine lanes", len(faults))
	}
	for lane, f := range faults {
		bi, ok := f.(fault.BatchInjector)
		if !ok {
			return fmt.Errorf("sim: fault %s (%T) does not support batch injection", f, f)
		}
		bi.BatchInject(a, lane, &a.pool)
	}
	return nil
}

// read senses cell across all machines into the scratch lanes, runs
// the read hooks and returns the sensed lanes (valid until the next
// operation).
func (a *Array) read(cell int) []uint64 {
	a.clock++
	base := cell * a.width
	for b := 0; b < a.width; b++ {
		a.val[b] = a.lanes[base+b]
	}
	for _, h := range a.readHooks[cell] {
		h.OnRead(a, cell, a.val)
	}
	for _, h := range a.everyRead {
		h.OnRead(a, cell, a.val)
	}
	return a.val
}

// write stores the data lanes into cell across all machines, bracketed
// by the write hooks.
func (a *Array) write(cell int, data []uint64) {
	a.clock++
	hooks := a.writeHooks[cell]
	for _, h := range hooks {
		h.PreWrite(a, cell, data)
	}
	base := cell * a.width
	for b := 0; b < a.width; b++ {
		a.lanes[base+b] = data[b]
	}
	for _, h := range hooks {
		h.PostWrite(a, cell, data)
	}
}
