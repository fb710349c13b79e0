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

	// views[g] adapts group g of this arena to fault.HookRegistry:
	// every hook is installed and invoked through the view of its
	// group and sees only that group's lane words.
	views []laneGroup

	// Dirty-cell tracking: dirtyAt[c] == epoch marks c already recorded
	// this batch.  The epoch bump in reset makes clearing O(dirty).
	dirty   []int32
	dirtyAt []uint32
	epoch   uint32

	// Hook storage, sized by one batch: each hook is a node of
	// wnodes/rnodes chained from whead/rhead[cell*laneWords+g] (-1 ends
	// a chain), and reset unhooks only the batch's nodes.  flags mirrors
	// the heads as one byte per cell (any group), the kernels' fast
	// test.  Only this file touches hook storage: the kernels reach
	// hooks through senseHooked and storeHooked.
	whead     []int32
	rhead     []int32
	wnodes    []hookNode[fault.WriteHook]
	rnodes    []hookNode[fault.ReadHook]
	everyRead [][]fault.ReadHook // per lane group
	everyN    int                // total every-read hooks across groups
	flags     []uint8

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
// lanes, hook storage, dirty tracking, observer accumulators, the hook
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
	a.whead, a.rhead = grow(a.whead, p.size*W), grow(a.rhead, p.size*W)
	for e := range a.whead {
		a.whead[e], a.rhead[e] = -1, -1
	}
	a.wnodes, a.rnodes = a.wnodes[:0], a.rnodes[:0]
	a.everyRead = grow(a.everyRead, W)
	clear(a.everyRead)
	a.everyN = 0
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

// hookNode is one hook of a batch on entry at; next is the node after
// it on that entry's chain.  Hooks of one entry belong to distinct
// lanes and touch only their own lane bits, so chain order is moot.
type hookNode[H any] struct {
	h        H
	at, next int32
}

// unhook empties the nodes' chains and clears flag f of their cells (W
// entries per cell: clearing the union byte per node is idempotent).
//
//faultsim:hotpath
func unhook[H any](nodes []hookNode[H], head []int32, flags []uint8, W int, f uint8) []hookNode[H] {
	for _, n := range nodes {
		head[n.at] = -1
		flags[int(n.at)/W] &^= f
	}
	return nodes[:0]
}

// laneGroup is the 64-lane view of one lane group of an arena: the
// LaneMemory/HookRegistry every fault-model hook of group g is
// installed against and invoked with, whatever the lane width.  All
// lane indexing is offset to the group's word of each cell-bit block,
// so the single-word hook implementations in the fault package run
// unmodified on wide arenas (for one group the index collapses to the
// classic cell*width+bit layout).
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

// Kernel-visible hook flags, one byte per cell.
const (
	flagRead  uint8 = 1 << iota // some group of the cell has read hooks
	flagWrite                   // some group of the cell has write hooks
)

// OnWriteTo implements fault.HookRegistry.
//
//faultsim:hotpath
func (v *laneGroup) OnWriteTo(cell int, h fault.WriteHook) {
	a := v.a
	e := cell*a.p.laneWords + v.g
	a.wnodes = append(a.wnodes, hookNode[fault.WriteHook]{h, int32(e), a.whead[e]}) //faultsim:alloc-ok capacity is retained across resets
	a.whead[e] = int32(len(a.wnodes) - 1)
	a.flags[cell] |= flagWrite
}

// OnReadOf implements fault.HookRegistry.
//
//faultsim:hotpath
func (v *laneGroup) OnReadOf(cell int, h fault.ReadHook) {
	a := v.a
	e := cell*a.p.laneWords + v.g
	a.rnodes = append(a.rnodes, hookNode[fault.ReadHook]{h, int32(e), a.rhead[e]}) //faultsim:alloc-ok capacity is retained across resets
	a.rhead[e] = int32(len(a.rnodes) - 1)
	a.flags[cell] |= flagRead
}

// OnEveryRead implements fault.HookRegistry.
//
//faultsim:hotpath
func (v *laneGroup) OnEveryRead(h fault.ReadHook) {
	a := v.a
	a.everyRead[v.g] = append(a.everyRead[v.g], h) //faultsim:alloc-ok capacity is retained across resets
	a.everyN++
}

// markDirty records cell for restoration at the next reset.
//
//faultsim:hotpath
func (a *Arena) markDirty(cell int) {
	if a.dirtyAt[cell] != a.epoch {
		a.dirtyAt[cell] = a.epoch
		a.dirty = append(a.dirty, int32(cell)) //faultsim:alloc-ok capacity is retained across resets; amortizes to zero
	}
}

// senseHooked runs the read hooks of every lane group over a sensed
// value of cell (val laid out [group][bit], group g's block val[g*w:
// (g+1)*w]) at operation clock: each group's hooks see only their own
// 64-lane block, through the group view.  The kernels call it when the
// cell's flagRead is set or every-read hooks are installed.
//
//faultsim:hotpath
func (a *Arena) senseHooked(cell int, val []uint64, clock uint64) {
	W, w := a.p.laneWords, a.p.width
	a.clock = clock
	e := cell * W
	for g := 0; g < W; g++ {
		vg := val[g*w : (g+1)*w]
		for i := a.rhead[e+g]; i >= 0; i = a.rnodes[i].next {
			a.rnodes[i].h.OnRead(&a.views[g], cell, vg)
		}
		for _, h := range a.everyRead[g] {
			h.OnRead(&a.views[g], cell, vg)
		}
	}
}

// storeHooked stores a write value (data laid out [group][bit]) into a
// write-hooked cell at operation clock, running each group's
// Pre/PostWrite hooks around that group's 64-lane store.  Groups are
// independent — a hook only touches its own group's lane words — so
// the per-group sequence is equivalent to the classic single-group
// pre/store/post order.  The kernels call it when the cell's flagWrite
// is set.
//
//faultsim:hotpath
func (a *Arena) storeHooked(cell int, data []uint64, clock uint64) {
	W, w := a.p.laneWords, a.p.width
	a.clock = clock
	a.markDirty(cell)
	e := cell * W
	base := e * w
	for g := 0; g < W; g++ {
		head := a.whead[e+g]
		dg := data[g*w : (g+1)*w]
		for i := head; i >= 0; i = a.wnodes[i].next {
			a.wnodes[i].h.PreWrite(&a.views[g], cell, dg)
		}
		copy(a.lanes[base+g*w:base+(g+1)*w], dg)
		for i := head; i >= 0; i = a.wnodes[i].next {
			a.wnodes[i].h.PostWrite(&a.views[g], cell, dg)
		}
	}
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
	a.wnodes = unhook(a.wnodes, a.whead, a.flags, a.p.laneWords, flagWrite)
	a.rnodes = unhook(a.rnodes, a.rhead, a.flags, a.p.laneWords, flagRead)
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
		bi, ok := f.(fault.BatchInjector)
		if !ok {
			//faultsim:alloc-ok cold error path, never taken by a well-formed campaign
			return fmt.Errorf("sim: fault %s (%T) does not support batch injection", f, f)
		}
		bi.BatchInject(&a.views[i/BatchSize], i%BatchSize, &a.pool)
	}
	return nil
}
