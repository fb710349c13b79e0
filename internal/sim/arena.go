package sim

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Arena is one replay worker's reusable machine-array state for a
// compiled program: lane buffer, hook tables, read-history ring,
// scratch and a hook pool.  Between batches only the cells the
// previous batch dirtied are restored (a dirty-cell list with epoch
// stamps), so steady-state batches allocate nothing and touch
// O(dirty) instead of O(Size×Width) memory.  An Arena is single-
// threaded; the streaming drivers create one per worker.
type Arena struct {
	p *Program

	// lanes[(cell*laneWords+g)*width+bit]: each cell owns a contiguous
	// block of laneWords*width words, lane group g (machines [g*64,
	// g*64+64)) at offset g*width — so a single group, viewed through
	// its laneGroup adapter, has exactly the classic 64-lane shape the
	// fault-model hooks address.
	lanes []uint64
	clock uint64

	// views[g] adapts group g of this arena to fault.HookRegistry;
	// hooks installed and invoked through views[g] see only that
	// group's lane words.
	views []laneGroup

	// Dirty-cell tracking: dirtyAt[c] == epoch marks c already recorded
	// this batch.  The epoch bump in reset makes clearing O(dirty).
	dirty   []int32
	dirtyAt []uint32
	epoch   uint32

	// Hook tables, per (cell, lane group) — index cell*laneWords+g;
	// hookedW/hookedR remember which entries the current batch hooked
	// so reset truncates only those (keeping the slices' capacity for
	// the next batch).  flags mirrors the tables' non-emptiness as one
	// byte per cell (any group): the kernels' hot loops test it instead
	// of loading 24-byte slice headers, keeping the lookup table
	// cache-resident even at production memory sizes.
	writeHooks [][]fault.WriteHook
	readHooks  [][]fault.ReadHook
	everyRead  [][]fault.ReadHook // per lane group
	everyN     int                // total every-read hooks across groups
	hookedW    []int32
	hookedR    []int32
	flags      []uint8

	hist []uint64 // read-history ring, maxBack*width*laneWords words
	val  []uint64 // scratch: sensed lanes of the current read, [group][bit]
	data []uint64 // scratch: lanes of the current write, [group][bit]

	// Signature-observer state: acc holds every observer's per-lane
	// accumulator difference back to back (Program.accWords rows of
	// laneWords words each, row r of observer o at acc[(o.acc+r)*W+g]
	// for group g; offsets pre-resolved in the fold/observe side
	// tables), obsScr is the fold scratch (widest observer) and diff
	// the read-difference scratch.  The whole buffer is a few words per
	// observer, so reset clears it wholesale — still O(observer state),
	// not O(memory).
	acc    []uint64
	obsScr []uint64
	diff   []uint64

	pool fault.Pool
}

// NewArena builds a worker arena for the program.
func NewArena(p *Program) *Arena {
	a := &Arena{}
	a.Retarget(p)
	return a
}

// grow resizes a scratch slice to n elements, reusing capacity.  The
// exposed elements may hold stale values; callers clear or overwrite
// what replay reads.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Retarget rebinds the arena to a (possibly different) compiled
// program: every buffer is resized for the new geometry and all state —
// lanes, hook tables, dirty tracking, observer accumulators, the hook
// pool — is restored to the program's initial conditions.  A
// retargeted arena is indistinguishable from a fresh NewArena (the
// cross-program reuse regression test replays program pairs in both
// orders), so session executors keep one arena per worker alive across
// the stages of a campaign instead of reallocating per program.
func (a *Arena) Retarget(p *Program) {
	a.p = p
	a.clock = 0
	W := p.laneWords
	a.lanes = grow(a.lanes, len(p.initLanes))
	copy(a.lanes, p.initLanes)
	a.views = grow(a.views, W)
	for g := range a.views {
		a.views[g] = laneGroup{a: a, g: g}
	}
	// Dirty tracking restarts from scratch: the wholesale lane copy
	// above already restored everything the previous program touched.
	a.dirty = a.dirty[:0]
	a.dirtyAt = grow(a.dirtyAt, p.size)
	clear(a.dirtyAt)
	a.epoch = 1
	// Hook state from the previous program is dropped outright (clear
	// nils the inner slices): the hooked lists may describe cells that
	// no longer exist at the new size.
	a.writeHooks = grow(a.writeHooks, p.size*W)
	clear(a.writeHooks)
	a.readHooks = grow(a.readHooks, p.size*W)
	clear(a.readHooks)
	a.everyRead = grow(a.everyRead, W)
	clear(a.everyRead)
	a.everyN = 0
	a.hookedW = a.hookedW[:0]
	a.hookedR = a.hookedR[:0]
	a.flags = grow(a.flags, p.size)
	clear(a.flags)
	a.val = grow(a.val, p.width*W)
	a.data = grow(a.data, p.width*W)
	a.hist = grow(a.hist, p.maxBack*p.width*W)
	clear(a.hist)
	a.acc = grow(a.acc, p.accWords*W)
	clear(a.acc)
	a.obsScr = grow(a.obsScr, p.obsBits*W)
	a.diff = grow(a.diff, p.width*W)
	a.pool.Reset()
}

// Arena implements fault.LaneMemory and fault.HookRegistry as lane
// group 0 — the only group of a classic 64-machine program, where the
// index formulas collapse to the historical cell*width+bit layout.
// Wider programs address groups g > 0 through a.views[g].

// Size implements fault.LaneMemory.
func (a *Arena) Size() int { return a.p.size }

// Width implements fault.LaneMemory.
func (a *Arena) Width() int { return a.p.width }

// Clock implements fault.LaneMemory.
func (a *Arena) Clock() uint64 { return a.clock }

// StoredLane implements fault.LaneMemory.
func (a *Arena) StoredLane(cell, bit int) uint64 {
	return a.lanes[cell*a.p.laneWords*a.p.width+bit]
}

// SetStoredLane implements fault.LaneMemory.
//
//faultsim:hotpath
func (a *Arena) SetStoredLane(cell, bit int, value, mask uint64) {
	a.markDirty(cell)
	idx := cell*a.p.laneWords*a.p.width + bit
	a.lanes[idx] = a.lanes[idx]&^mask | value&mask
}

// laneGroup is the 64-lane view of one lane group of an arena: the
// LaneMemory/HookRegistry the fault-model hooks of group g are
// installed against and invoked with.  All lane indexing is offset to
// the group's word of each cell-bit block, so the single-word hook
// implementations in the fault package run unmodified on wide arenas.
type laneGroup struct {
	a *Arena
	g int
}

// Size implements fault.LaneMemory.
func (v *laneGroup) Size() int { return v.a.p.size }

// Width implements fault.LaneMemory.
func (v *laneGroup) Width() int { return v.a.p.width }

// Clock implements fault.LaneMemory.
func (v *laneGroup) Clock() uint64 { return v.a.clock }

// StoredLane implements fault.LaneMemory.
//
//faultsim:hotpath
func (v *laneGroup) StoredLane(cell, bit int) uint64 {
	p := v.a.p
	return v.a.lanes[(cell*p.laneWords+v.g)*p.width+bit]
}

// SetStoredLane implements fault.LaneMemory.
//
//faultsim:hotpath
func (v *laneGroup) SetStoredLane(cell, bit int, value, mask uint64) {
	a := v.a
	a.markDirty(cell)
	idx := (cell*a.p.laneWords+v.g)*a.p.width + bit
	a.lanes[idx] = a.lanes[idx]&^mask | value&mask
}

// OnWriteTo implements fault.HookRegistry.
//
//faultsim:hotpath
func (v *laneGroup) OnWriteTo(cell int, h fault.WriteHook) { v.a.onWriteTo(cell, v.g, h) }

// OnReadOf implements fault.HookRegistry.
//
//faultsim:hotpath
func (v *laneGroup) OnReadOf(cell int, h fault.ReadHook) { v.a.onReadOf(cell, v.g, h) }

// OnEveryRead implements fault.HookRegistry.
//
//faultsim:hotpath
func (v *laneGroup) OnEveryRead(h fault.ReadHook) { v.a.onEveryRead(v.g, h) }

// markDirty records cell for restoration at the next reset.
//
//faultsim:hotpath
func (a *Arena) markDirty(cell int) {
	if a.dirtyAt[cell] != a.epoch {
		a.dirtyAt[cell] = a.epoch
		a.dirty = append(a.dirty, int32(cell)) //faultsim:alloc-ok capacity is retained across resets; amortizes to zero
	}
}

// Kernel-visible hook flags, one byte per cell.
const (
	flagRead  uint8 = 1 << iota // readHooks[cell] is non-empty
	flagWrite                   // writeHooks[cell] is non-empty
)

// OnWriteTo implements fault.HookRegistry (lane group 0).
//
//faultsim:hotpath
func (a *Arena) OnWriteTo(cell int, h fault.WriteHook) { a.onWriteTo(cell, 0, h) }

// OnReadOf implements fault.HookRegistry (lane group 0).
//
//faultsim:hotpath
func (a *Arena) OnReadOf(cell int, h fault.ReadHook) { a.onReadOf(cell, 0, h) }

// OnEveryRead implements fault.HookRegistry (lane group 0).
//
//faultsim:hotpath
func (a *Arena) OnEveryRead(h fault.ReadHook) { a.onEveryRead(0, h) }

//faultsim:hotpath
func (a *Arena) onWriteTo(cell, g int, h fault.WriteHook) {
	e := cell*a.p.laneWords + g
	if len(a.writeHooks[e]) == 0 {
		a.hookedW = append(a.hookedW, int32(e)) //faultsim:alloc-ok capacity is retained across resets
		a.flags[cell] |= flagWrite
	}
	a.writeHooks[e] = append(a.writeHooks[e], h) //faultsim:alloc-ok hook lists keep capacity across resets
}

//faultsim:hotpath
func (a *Arena) onReadOf(cell, g int, h fault.ReadHook) {
	e := cell*a.p.laneWords + g
	if len(a.readHooks[e]) == 0 {
		a.hookedR = append(a.hookedR, int32(e)) //faultsim:alloc-ok capacity is retained across resets
		a.flags[cell] |= flagRead
	}
	a.readHooks[e] = append(a.readHooks[e], h) //faultsim:alloc-ok hook lists keep capacity across resets
}

//faultsim:hotpath
func (a *Arena) onEveryRead(g int, h fault.ReadHook) {
	a.everyRead[g] = append(a.everyRead[g], h) //faultsim:alloc-ok capacity is retained across resets
	a.everyN++
}

// reset restores the arena to the program's initial state, touching
// only what the previous batch changed.
//
//faultsim:hotpath
func (a *Arena) reset() {
	// blk is the per-cell lane block: laneWords words per bit.
	blk := a.p.width * a.p.laneWords
	switch {
	case a.p.dense || 2*len(a.dirty) >= a.p.size:
		// Most cells dirtied (typical for full-array test algorithms,
		// detected at compile time as dense): one contiguous copy beats
		// per-cell restores — and the kernels skip dirty marking for
		// dense programs entirely.
		copy(a.lanes, a.p.initLanes)
	case blk == 1:
		for _, c := range a.dirty {
			a.lanes[c] = a.p.initLanes[c]
		}
	default:
		for _, c := range a.dirty {
			base := int(c) * blk
			copy(a.lanes[base:base+blk], a.p.initLanes[base:base+blk])
		}
	}
	a.dirty = a.dirty[:0]
	a.epoch++
	if a.epoch == 0 { // stamp wrap-around: invalidate all stamps
		clear(a.dirtyAt)
		a.epoch = 1
	}
	// Hooked entries are (cell, group) pairs; the per-cell flag byte is
	// the union over groups, so clearing it per entry is idempotent.
	W := a.p.laneWords
	for _, e := range a.hookedW {
		a.writeHooks[e] = a.writeHooks[e][:0]
		a.flags[int(e)/W] &^= flagWrite
	}
	for _, e := range a.hookedR {
		a.readHooks[e] = a.readHooks[e][:0]
		a.flags[int(e)/W] &^= flagRead
	}
	a.hookedW = a.hookedW[:0]
	a.hookedR = a.hookedR[:0]
	if a.everyN != 0 {
		for g := range a.everyRead {
			a.everyRead[g] = a.everyRead[g][:0]
		}
		a.everyN = 0
	}
	clear(a.acc)
	a.pool.Reset()
	a.clock = 0
}

// ArenaPool recycles worker arenas across the compiled programs of a
// campaign session: a worker checks an arena out for one program (Get
// retargets it when the shape changed), replays its batches, and
// returns it.  A nil pool is valid and simply builds fresh arenas.
// The pool is safe for concurrent Get/Put; each checked-out arena is
// still single-threaded.
type ArenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// Get returns an arena bound to p, reusing a pooled one when possible.
func (ap *ArenaPool) Get(p *Program) *Arena {
	if ap == nil {
		telemetry.Active().ArenaGet(false)
		return NewArena(p)
	}
	ap.mu.Lock()
	var a *Arena
	if n := len(ap.free); n > 0 {
		a = ap.free[n-1]
		ap.free = ap.free[:n-1]
	}
	ap.mu.Unlock()
	telemetry.Active().ArenaGet(a != nil)
	if a == nil {
		return NewArena(p)
	}
	a.Retarget(p)
	return a
}

// Put returns an arena to the pool for a later Get.
func (ap *ArenaPool) Put(a *Arena) {
	if ap == nil || a == nil {
		return
	}
	ap.mu.Lock()
	ap.free = append(ap.free, a)
	ap.mu.Unlock()
}

// inject installs each fault on its machine lane, drawing hook objects
// from the arena's pool.  Fault i lands on lane i%64 of lane group
// i/64, registered through that group's 64-lane view.
//
//faultsim:hotpath
func (a *Arena) inject(faults []fault.Fault) error {
	if len(faults) > a.p.BatchFaults() {
		//faultsim:alloc-ok cold error path, never taken by a well-formed campaign
		return fmt.Errorf("sim: batch of %d faults exceeds the %d machine lanes", len(faults), a.p.BatchFaults())
	}
	for i, f := range faults {
		var reg fault.HookRegistry = a
		lane := i
		if lane >= BatchSize {
			reg = &a.views[lane/BatchSize]
			lane %= BatchSize
		}
		bi, ok := f.(fault.BatchInjector)
		if !ok {
			//faultsim:alloc-ok cold error path, never taken by a well-formed campaign
			return fmt.Errorf("sim: fault %s (%T) does not support batch injection", f, f)
		}
		bi.BatchInject(reg, lane, &a.pool)
	}
	return nil
}
