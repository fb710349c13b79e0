// The compiled replay kernels: every function in this file is on the
// zero-allocation hot path (AllocsPerRun-enforced at runtime,
// hotpathalloc-enforced at vet time).
//
//faultsim:hotpath

package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
)

// ReplayInto simulates up to laneWords*64 faults against the compiled
// program and fills det (one word per lane group, len == LaneWords())
// with the detection masks: bit l of det[g] is set when machine g*64+l
// detected.  Fault i rides lane i%64 of group i/64, so verdicts are
// positional, as ReplayBatch's are for the uncompiled trace.
// Steady-state calls allocate nothing: the arena restores only the
// cells the previous batch dirtied and recycles its hook objects
// through the fault pool.
func (p *Program) ReplayInto(a *Arena, faults []fault.Fault, det []uint64) error {
	W := p.laneWords
	if len(det) != W {
		//faultsim:alloc-ok cold error path, never taken by a well-formed campaign
		return fmt.Errorf("sim: detection buffer has %d words, the program's lane width is %d", len(det), W)
	}
	for g := range det {
		det[g] = 0
	}
	if len(faults) == 0 {
		return nil
	}
	if a.p != p {
		//faultsim:alloc-ok cold error path, never taken by a well-formed campaign
		return fmt.Errorf("sim: arena belongs to a different program")
	}
	a.reset()
	// A sparse program's batch starts sparse, so a hook touching a cell
	// during injection flags it live; an every-read hook sees the reads
	// of every cell, so a batch holding one runs dense.
	a.sparse = p.sparse
	if err := a.inject(faults); err != nil {
		return err
	}
	a.sparse = p.sparse && a.everyN == 0
	// The pass runs over the G lane groups the batch fills.  full[g]
	// masks the populated lanes of group g: detection updates are ANDed
	// with it, and the kernels early-exit when every group's detected
	// word reaches it.
	n := len(faults)
	G := (n + BatchSize - 1) / BatchSize
	a.groups = G
	var fullArr [MaxLaneWords]uint64
	full := fullArr[:G]
	for g := range full {
		full[g] = ^uint64(0)
		if r := n - g*BatchSize; r < BatchSize {
			full[g] = uint64(1)<<uint(r) - 1
		}
	}
	switch {
	case W == 1 && p.width == 1:
		det[0] = p.run1(a, full[0])
	case W == 1:
		det[0] = p.runN(a, full[0])
	case p.width == 1:
		p.run1W(a, det[:G], full)
	default:
		p.runNW(a, det[:G], full)
	}
	return nil
}

// allDetected reports whether every populated lane of every group has
// detected — the wide kernels' early-exit test.
func allDetected(det, full []uint64) bool {
	for g := range det {
		if det[g] != full[g] {
			return false
		}
	}
	return true
}

// Kernel structure, shared by all four kernels.  Each has one read path
// (sense, read hooks) taken by plain, checked, folded and fused reads,
// and one write path (hooked or plain store) taken by literal, affine
// and fused writes: a fused opCheckWrite senses and compares, then falls
// through to the write path with its literal data, still in one
// dispatch.  An affine head, on the write side, executes the run of
// reads its write consumes — each ticks the clock, senses, compares or
// folds as its opcode says and XORs its value into the write data under
// its terms — then stores and advances past the run.  Hooks run only
// through the arena's senseHooked and storeHooked, behind the one-byte
// flag test.  The operation clock lives in a register and is handed to
// the arena only for those calls (hooks are its only readers, via
// fault.LaneMemory.Clock).  The pass returns as soon as every machine
// of the batch has detected.
//
// In a sparse batch (a literal program, no every-read hook) an op on a
// cell whose flag byte is 0 is skipped: no fault has reached the cell,
// so every machine holds the clean value there and its checked reads
// cannot detect; the arena restores that value when a hook first
// reaches the cell.  A skipped op reads only its code word and still
// ticks the clock (twice for a fused op).  Each kernel leaves the ops
// it executed in a.executed: the index it stopped at, less the ops it
// skipped, and less the head of a run a detection cut short, whose
// write never ran.  The wide kernels run only the lane groups the
// batch fills (len(det)); their strides stay W.
//
// All four kernels range over the same code words and read an executed
// op's operands from p.args[i]: a read's expected value and a write's
// literal data at lanePool[lane], a fused write's data at lanePool[t0],
// an affine head's offset at lanePool[lane] and its run length in t0,
// a run read's terms at terms[t0:t0+tn].

// diffMask returns the machines whose sensed word v differs from the
// clean word's broadcast lanes.
func diffMask(v, clean []uint64) uint64 {
	var d uint64
	for b, c := range clean {
		d |= v[b] ^ c
	}
	return d
}

// fold1 is run1's signature fold: acc ← step·acc ⊕ tap·diff per lane,
// diff the read's one-word difference from its clean value.  It
// returns the machines a checked fold detects.
func (p *Program) fold1(a *Arena, fr *foldRec, diff uint64) uint64 {
	step := p.rowPool[fr.step : fr.step+fr.bits]
	tap := p.rowPool[fr.tap : fr.tap+fr.bits]
	av := a.acc[fr.acc : fr.acc+fr.bits]
	scr := a.obsScr
	for r := range av {
		var nv uint64
		for m := step[r]; m != 0; m &= m - 1 {
			nv ^= av[bits.TrailingZeros32(m)]
		}
		if tap[r]&1 != 0 {
			nv ^= diff
		}
		scr[r] = nv
	}
	copy(av, scr[:len(av)])
	if !fr.checked {
		return 0
	}
	return diff
}

// foldN is runN's signature fold: acc ← step·acc ⊕ tap·diff per lane,
// diff the sensed word v less its clean value.  It returns the machines
// a checked fold detects.
func (p *Program) foldN(a *Arena, fr *foldRec, v, clean []uint64) uint64 {
	diff := a.diff[:len(clean)]
	var any uint64
	for b, c := range clean {
		diff[b] = v[b] ^ c
		any |= diff[b]
	}
	step := p.rowPool[fr.step : fr.step+fr.bits]
	tap := p.rowPool[fr.tap : fr.tap+fr.bits]
	av := a.acc[fr.acc : fr.acc+fr.bits]
	for r := range av {
		var nv uint64
		for m := step[r]; m != 0; m &= m - 1 {
			nv ^= av[bits.TrailingZeros32(m)]
		}
		for m := tap[r]; m != 0; m &= m - 1 {
			nv ^= diff[bits.TrailingZeros32(m)]
		}
		a.obsScr[r] = nv
	}
	copy(av, a.obsScr[:len(av)])
	if !fr.checked {
		return 0
	}
	return any
}

// fold1W is run1W's signature fold over the G = len(det) lane groups
// the batch fills: acc ← step·acc ⊕ tap·diff per lane group, diff the
// groups' one-word differences from the clean value.  A checked fold
// first records its diverging machines in det.
func (p *Program) fold1W(a *Arena, fr *foldRec, v []uint64, clean uint64, det, full []uint64) {
	W, G := p.laneWords, len(det)
	diff := a.diff[:G]
	for g := 0; g < G; g++ {
		diff[g] = v[g] ^ clean
		if fr.checked {
			det[g] |= diff[g] & full[g]
		}
	}
	step := p.rowPool[fr.step : fr.step+fr.bits]
	tap := p.rowPool[fr.tap : fr.tap+fr.bits]
	nb := int(fr.bits)
	av := a.acc[int(fr.acc)*W : int(fr.acc)*W+nb*W]
	scr := a.obsScr[:nb*W]
	for r := 0; r < nb; r++ {
		for g := 0; g < G; g++ {
			var nv uint64
			for m := step[r]; m != 0; m &= m - 1 {
				nv ^= av[bits.TrailingZeros32(m)*W+g]
			}
			if tap[r]&1 != 0 {
				nv ^= diff[g]
			}
			scr[r*W+g] = nv
		}
	}
	copy(av, scr) // idle groups' rows carry stale scratch nothing reads
}

// foldNW is runNW's signature fold over the G = len(det) lane groups the
// batch fills, v laid out [group][bit]: acc ← step·acc ⊕ tap·diff per
// lane group.  A checked fold first records its diverging machines in
// det.
func (p *Program) foldNW(a *Arena, fr *foldRec, v, clean, det, full []uint64) {
	W, G, w := p.laneWords, len(det), len(clean)
	diff := a.diff[:G*w]
	for g := 0; g < G; g++ {
		var any uint64
		for b, c := range clean {
			diff[g*w+b] = v[g*w+b] ^ c
			any |= diff[g*w+b]
		}
		if fr.checked {
			det[g] |= any & full[g]
		}
	}
	step := p.rowPool[fr.step : fr.step+fr.bits]
	tap := p.rowPool[fr.tap : fr.tap+fr.bits]
	nb := int(fr.bits)
	av := a.acc[int(fr.acc)*W : int(fr.acc)*W+nb*W]
	scr := a.obsScr[:nb*W]
	for r := 0; r < nb; r++ {
		for g := 0; g < G; g++ {
			var nv uint64
			for m := step[r]; m != 0; m &= m - 1 {
				nv ^= av[bits.TrailingZeros32(m)*W+g]
			}
			for m := tap[r]; m != 0; m &= m - 1 {
				nv ^= diff[g*w+bits.TrailingZeros32(m)]
			}
			scr[r*W+g] = nv
		}
	}
	copy(av, scr) // idle groups' rows carry stale scratch nothing reads
}

// run1 is the width-1 kernel for bit-oriented memories: one lane word
// per cell and no per-bit inner loops anywhere on the hot path.  It
// reads the arena's buffers and the program's settings through a and p
// instead of caching them in locals: with the read and write paths
// shared, cached slice headers outnumber the registers and spill at
// every merge, which cost March C− replay about a fifth of its speed.
func (p *Program) run1(a *Arena, full uint64) uint64 {
	var detected uint64
	foldPos, obsPos := 0, 0
	clock := a.clock
	code := p.code
	i, skipped := 0, 0
ops:
	for ; i < len(code); i++ {
		oa := code[i]
		op := oa >> opShift
		cell := int(oa & addrMask)
		if a.sparse && a.flags[cell] == 0 {
			clock++
			if op == opCheckWrite {
				clock++
			}
			skipped++
			continue
		}
		var d uint64 // the data a write stores
		if op == opCheckWrite || op <= opFold {
			clock++
			v := a.lanes[cell]
			if a.flags[cell]&flagRead != 0 || a.everyN != 0 {
				a.val[0] = v
				a.senseHooked(cell, a.val[:1], clock)
				v = a.val[0]
			}
			if op == opRead {
				continue
			}
			diff := v ^ p.lanePool[p.args[i].lane] // the read's difference from the clean value
			if op == opFold {
				diff = p.fold1(a, &p.folds[foldPos], diff)
				foldPos++
			}
			detected |= diff & full
			if detected == full {
				break // every machine has detected
			}
			if op != opCheckWrite {
				continue
			}
			// Fused write half: t0 holds the literal data's offset.
			d = p.lanePool[p.args[i].t0]
		} else if op == opObserve {
			// Compare point: no memory access, no clock tick — the
			// machine diverges iff its accumulated signature diff is
			// nonzero.
			ob := &p.observes[obsPos]
			obsPos++
			var acc uint64
			for _, w := range a.acc[ob.acc : ob.acc+ob.bits] {
				acc |= w
			}
			detected |= acc & full
			if detected == full {
				break
			}
			continue
		} else {
			d = p.lanePool[p.args[i].lane] // literal data or affine offset
			if op == opAffine {
				// The head of a run: execute the reads the write consumes.
				for end := i + int(p.args[i].t0); i < end; {
					i++
					rc := int(code[i] & addrMask)
					clock++
					v := a.lanes[rc]
					if a.flags[rc]&flagRead != 0 || a.everyN != 0 {
						a.val[0] = v
						a.senseHooked(rc, a.val[:1], clock)
						v = a.val[0]
					}
					arg := &p.args[i]
					switch code[i] >> opShift {
					case opCheck:
						detected |= (v ^ p.lanePool[arg.lane]) & full
					case opFold:
						detected |= p.fold1(a, &p.folds[foldPos], v^p.lanePool[arg.lane]) & full
						foldPos++
					}
					if detected == full {
						skipped++ // the head's write never ran
						break ops
					}
					for _, t := range p.terms[arg.t0 : arg.t0+arg.tn] {
						if t.mask&1 != 0 {
							d ^= v
						}
					}
				}
			}
		}
		clock++ // a fused op's write is a second memory operation
		if a.flags[cell]&flagWrite != 0 {
			a.data[0] = d
			a.storeHooked(cell, a.data[:1], clock)
		} else {
			if !p.dense || a.sparse {
				a.markDirty(cell)
			}
			a.lanes[cell] = d
		}
	}
	a.clock = clock
	a.executed = uint64(min(i+1, len(code)) - skipped)
	return detected
}

// runN is the generic kernel for word-oriented memories (width >= 2).
func (p *Program) runN(a *Arena, full uint64) uint64 {
	w := p.width
	var detected uint64
	foldPos, obsPos := 0, 0
	lanes, flags := a.lanes, a.flags
	val, data := a.val, a.data // one lane group: w words each
	hasEvery, sparse := a.everyN != 0, a.sparse
	track := !p.dense || sparse // dense traces restore wholesale, skip marking
	clock := a.clock
	code := p.code
	i, skipped := 0, 0
ops:
	for ; i < len(code); i++ {
		oa := code[i]
		op := oa >> opShift
		cell := int(oa & addrMask)
		if sparse && flags[cell] == 0 {
			clock++
			if op == opCheckWrite {
				clock++
			}
			skipped++
			continue
		}
		if op == opObserve {
			// Compare point: no memory access, no clock tick.
			ob := &p.observes[obsPos]
			obsPos++
			var d uint64
			for _, wv := range a.acc[ob.acc : ob.acc+ob.bits] {
				d |= wv
			}
			detected |= d & full
			if detected == full {
				break
			}
			continue
		}
		base := cell * w
		arg := &p.args[i]
		src := arg.lane // lanePool offset of a write's literal data
		if op == opCheckWrite || op <= opFold {
			clock++
			copy(val, lanes[base:base+w])
			if flags[cell]&flagRead != 0 || hasEvery {
				a.senseHooked(cell, val, clock)
			}
			if op == opRead {
				continue
			}
			clean := p.lanePool[arg.lane : int(arg.lane)+w]
			if op == opFold {
				detected |= p.foldN(a, &p.folds[foldPos], val, clean) & full
				foldPos++
			} else {
				detected |= diffMask(val, clean) & full
			}
			if detected == full {
				break // every machine has detected
			}
			if op != opCheckWrite {
				continue
			}
			// Fused write half: t0 holds the literal data's offset.
			src = arg.t0
		}
		copy(data, p.lanePool[src:int(src)+w])
		if op == opAffine {
			// The head of a run: execute the reads the write consumes,
			// sensing in place unless hooks may change the value.
			for end := i + int(arg.t0); i < end; {
				i++
				rc := int(code[i] & addrMask)
				clock++
				v := lanes[rc*w : rc*w+w]
				if flags[rc]&flagRead != 0 || hasEvery {
					v = val
					copy(v, lanes[rc*w:rc*w+w])
					a.senseHooked(rc, v, clock)
				}
				ra := &p.args[i]
				switch code[i] >> opShift {
				case opCheck:
					detected |= diffMask(v, p.lanePool[ra.lane:int(ra.lane)+w]) & full
				case opFold:
					detected |= p.foldN(a, &p.folds[foldPos], v, p.lanePool[ra.lane:int(ra.lane)+w]) & full
					foldPos++
				}
				if detected == full {
					skipped++ // the head's write never ran
					break ops
				}
				for _, t := range p.terms[ra.t0 : ra.t0+ra.tn] {
					for rm := t.mask; rm != 0; rm &= rm - 1 {
						data[t.dst] ^= v[bits.TrailingZeros32(rm)]
					}
				}
			}
		}
		clock++ // a fused op's write is a second memory operation
		if flags[cell]&flagWrite != 0 {
			a.storeHooked(cell, data, clock)
		} else {
			if track {
				a.markDirty(cell)
			}
			copy(lanes[base:base+w], data)
		}
	}
	a.clock = clock
	a.executed = uint64(min(i+1, len(code)) - skipped)
	return detected
}

// run1W is the wide width-1 kernel (laneWords > 1): run1 with a W-word
// lane block per cell — sense, compare, fold and store inner loops all
// run over the G <= W words the batch fills, amortizing dispatch and
// flag checks over G*64 machines.
func (p *Program) run1W(a *Arena, det, full []uint64) {
	W, G := p.laneWords, len(det)
	foldPos, obsPos := 0, 0
	lanes, flags := a.lanes, a.flags
	data := a.data[:G]
	hasEvery, sparse := a.everyN != 0, a.sparse
	track := !p.dense || sparse // dense traces restore wholesale, skip marking
	clock := a.clock
	code := p.code
	i, skipped := 0, 0
ops:
	for ; i < len(code); i++ {
		oa := code[i]
		op := oa >> opShift
		cell := int(oa & addrMask)
		if sparse && flags[cell] == 0 {
			clock++
			if op == opCheckWrite {
				clock++
			}
			skipped++
			continue
		}
		if op == opObserve {
			// Compare point: no memory access, no clock tick.
			ob := &p.observes[obsPos]
			obsPos++
			accBase := int(ob.acc) * W
			nb := int(ob.bits)
			for g := 0; g < G; g++ {
				var d uint64
				for r := 0; r < nb; r++ {
					d |= a.acc[accBase+r*W+g]
				}
				det[g] |= d & full[g]
			}
			if allDetected(det, full) {
				break
			}
			continue
		}
		base := cell * W
		arg := &p.args[i]
		src := arg.lane // lanePool offset of a write's literal data
		if op == opCheckWrite || op <= opFold {
			clock++
			// No hooks can perturb an unhooked sense: read the lane block
			// in place, no scratch copy.
			v := lanes[base : base+G]
			if flags[cell]&flagRead != 0 || hasEvery {
				v = a.val[:G]
				copy(v, lanes[base:base+G])
				a.senseHooked(cell, v, clock)
			}
			if op == opRead {
				continue
			}
			if op == opFold {
				p.fold1W(a, &p.folds[foldPos], v, p.lanePool[arg.lane], det, full)
				foldPos++
			} else {
				clean := p.lanePool[arg.lane]
				for g := 0; g < G; g++ {
					det[g] |= (v[g] ^ clean) & full[g]
				}
			}
			if allDetected(det, full) {
				break // every machine has detected
			}
			if op != opCheckWrite {
				continue
			}
			// Fused write half: t0 holds the literal data's offset.
			src = arg.t0
		}
		d := p.lanePool[src]
		for g := range data {
			data[g] = d
		}
		if op == opAffine {
			// The head of a run: execute the reads the write consumes;
			// per-group data diverges through their terms.
			for end := i + int(arg.t0); i < end; {
				i++
				rc := int(code[i] & addrMask)
				clock++
				v := lanes[rc*W : rc*W+G]
				if flags[rc]&flagRead != 0 || hasEvery {
					v = a.val[:G]
					copy(v, lanes[rc*W:rc*W+G])
					a.senseHooked(rc, v, clock)
				}
				ra := &p.args[i]
				if rop := code[i] >> opShift; rop != opRead {
					if rop == opFold {
						p.fold1W(a, &p.folds[foldPos], v, p.lanePool[ra.lane], det, full)
						foldPos++
					} else {
						clean := p.lanePool[ra.lane]
						for g := 0; g < G; g++ {
							det[g] |= (v[g] ^ clean) & full[g]
						}
					}
					if allDetected(det, full) {
						skipped++ // the head's write never ran
						break ops
					}
				}
				for _, t := range p.terms[ra.t0 : ra.t0+ra.tn] {
					if t.mask&1 != 0 {
						for g := 0; g < G; g++ {
							data[g] ^= v[g]
						}
					}
				}
			}
		}
		clock++ // a fused op's write is a second memory operation
		if flags[cell]&flagWrite != 0 {
			a.storeHooked(cell, data, clock)
		} else {
			if track {
				a.markDirty(cell)
			}
			copy(lanes[base:base+G], data)
		}
	}
	a.clock = clock
	a.executed = uint64(min(i+1, len(code)) - skipped)
}

// runNW is the wide generic kernel (width >= 2, laneWords > 1): cell
// blocks are laneWords*width words laid out [group][bit], and every
// per-bit inner loop of runN gains a lane-group dimension over the G
// groups the batch fills.
func (p *Program) runNW(a *Arena, det, full []uint64) {
	W, G, w := p.laneWords, len(det), p.width
	ww, gw := W*w, G*w // words per cell block, words the batch uses
	foldPos, obsPos := 0, 0
	lanes, flags := a.lanes, a.flags
	val, data := a.val[:gw], a.data[:gw]
	hasEvery, sparse := a.everyN != 0, a.sparse
	track := !p.dense || sparse // dense traces restore wholesale, skip marking
	clock := a.clock
	code := p.code
	i, skipped := 0, 0
ops:
	for ; i < len(code); i++ {
		oa := code[i]
		op := oa >> opShift
		cell := int(oa & addrMask)
		if sparse && flags[cell] == 0 {
			clock++
			if op == opCheckWrite {
				clock++
			}
			skipped++
			continue
		}
		if op == opObserve {
			// Compare point: no memory access, no clock tick.
			ob := &p.observes[obsPos]
			obsPos++
			accBase := int(ob.acc) * W
			nb := int(ob.bits)
			for g := 0; g < G; g++ {
				var d uint64
				for r := 0; r < nb; r++ {
					d |= a.acc[accBase+r*W+g]
				}
				det[g] |= d & full[g]
			}
			if allDetected(det, full) {
				break
			}
			continue
		}
		base := cell * ww
		arg := &p.args[i]
		src := arg.lane // lanePool offset of a write's literal data
		if op == opCheckWrite || op <= opFold {
			clock++
			copy(val, lanes[base:base+gw])
			if flags[cell]&flagRead != 0 || hasEvery {
				a.senseHooked(cell, val, clock)
			}
			if op == opRead {
				continue
			}
			clean := p.lanePool[arg.lane : int(arg.lane)+w]
			if op == opFold {
				p.foldNW(a, &p.folds[foldPos], val, clean, det, full)
				foldPos++
			} else {
				for g := 0; g < G; g++ {
					det[g] |= diffMask(val[g*w:], clean) & full[g]
				}
			}
			if allDetected(det, full) {
				break // every machine has detected
			}
			if op != opCheckWrite {
				continue
			}
			// Fused write half: t0 holds the literal data's offset.
			src = arg.t0
		}
		lit := p.lanePool[src : int(src)+w]
		for g := 0; g < G; g++ {
			copy(data[g*w:(g+1)*w], lit)
		}
		if op == opAffine {
			// The head of a run: execute the reads the write consumes,
			// sensing in place unless hooks may change the value.
			for end := i + int(arg.t0); i < end; {
				i++
				rc := int(code[i] & addrMask)
				clock++
				v := lanes[rc*ww : rc*ww+gw]
				if flags[rc]&flagRead != 0 || hasEvery {
					v = val
					copy(v, lanes[rc*ww:rc*ww+gw])
					a.senseHooked(rc, v, clock)
				}
				ra := &p.args[i]
				if rop := code[i] >> opShift; rop != opRead {
					clean := p.lanePool[ra.lane : int(ra.lane)+w]
					if rop == opFold {
						p.foldNW(a, &p.folds[foldPos], v, clean, det, full)
						foldPos++
					} else {
						for g := 0; g < G; g++ {
							det[g] |= diffMask(v[g*w:], clean) & full[g]
						}
					}
					if allDetected(det, full) {
						skipped++ // the head's write never ran
						break ops
					}
				}
				for _, t := range p.terms[ra.t0 : ra.t0+ra.tn] {
					for rm := t.mask; rm != 0; rm &= rm - 1 {
						b := bits.TrailingZeros32(rm)
						for g := 0; g < G; g++ {
							data[g*w+int(t.dst)] ^= v[g*w+b]
						}
					}
				}
			}
		}
		clock++ // a fused op's write is a second memory operation
		if flags[cell]&flagWrite != 0 {
			a.storeHooked(cell, data, clock)
		} else {
			if track {
				a.markDirty(cell)
			}
			copy(lanes[base:base+gw], data)
		}
	}
	a.clock = clock
	a.executed = uint64(min(i+1, len(code)) - skipped)
}
