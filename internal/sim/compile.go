// The trace compiler.  Compilation must be deterministic: compiled
// programs are cached process-wide by trace identity, and the collapse
// rules and checkpoint spec hashes are derived from compiler output,
// so the same trace must lower to the same instruction stream on every
// run.
//
//faultsim:deterministic

package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/fault"
	"repro/internal/ram"
)

// This file is the trace compiler: Trace.Ops — a per-op tree of kinds,
// annotations and Linear/Fold pointers — is lowered once per campaign
// into a flat instruction stream the replay kernels execute with no
// per-op decoding beyond a six-way opcode dispatch.  Compilation
// pre-resolves everything the generic replay loop recomputes per batch:
//
//   - cell indices and lanePool offsets per instruction;
//   - clean data and expected checked-read values, expanded from Words
//     into broadcast lane words in one shared pool;
//   - affine recurrence writes, each moved to the head of the run of
//     reads it consumes, whose reads carry their (dst, mask) terms;
//   - signature folds and observer compare points, resolved to offsets
//     into a per-arena accumulator buffer with their GF(2) matrices
//     deduplicated in one shared row pool;
//   - the trace suffix after the last detection point (checked read or
//     observer compare), which is trimmed: ops past the final
//     comparison cannot affect detection.

// Instruction opcodes, stored in the top three bits of each code word.
// The read-like opcodes (<= opFold) and write-like opcodes share their
// kernel prologue, so the ordering is load-bearing.  opCheckWrite is
// the fused super-op (read + check + literal write on one cell) and is
// dispatched explicitly before the read/write split.
const (
	opRead       uint32 = iota // plain read: sense + hooks
	opCheck                    // checked read: opRead + comparison against lanes
	opFold                     // read folded into a signature observer (side table)
	opWrite                    // broadcast write of a literal clean value
	opAffine                   // head of a run: its reads, then a GF(2)-affine write
	opObserve                  // observer compare point (no memory access)
	opCheckWrite               // fused checked read + literal write of one cell

	opShift  = 29
	addrMask = 1<<opShift - 1
)

// Lane-width configuration: a program simulates laneWords*64 machines
// per batch.  1 word is the classic 64-machine batch; 8 words (512
// machines) amortize per-op dispatch, hook-flag checks and per-batch
// arena resets over wider lane blocks, which pays on large memories.
const MaxLaneWords = 8

// ValidLaneWords reports whether w is a supported lane width (in
// 64-machine words).
func ValidLaneWords(w int) bool { return w == 1 || w == MaxLaneWords }

// A compiled operation is one code word and one operand record, split
// by how often the kernels read them.  The code word, all a skipped op
// reads, carries the opcode in its top three bits and the cell index
// below, so a sparse batch's skip scan pulls 4 bytes per op through
// cache.  The operand record, read only for an op the kernel executes,
// indexes the program's lanePool (width words per entry): lane is the
// expected value of an opCheck or opFold, the literal data of an
// opWrite, the affine offset of an opAffine.  A fused opCheckWrite
// keeps the expected value in lane and reuses t0 as the lanePool offset
// of the literal write data.
//
// An affine write heads the run of reads it consumes: its opAffine word
// comes first, t0 holding the run length, and each run read keeps its
// own word and operand, terms[t0:t0+tn] being what its sensed value
// feeds into the write (none for a stale-capture check of the target).
type operand struct {
	lane   int32
	t0, tn int32
}

// foldRec is the side-table record of one signature fold, consumed in
// program order by both kernels: acc is the observer's offset into the
// arena's accumulator buffer, bits its width, step/tap offsets into
// the shared row pool, and checked carries an AnnotateChecked that
// coincides with the fold.
type foldRec struct {
	acc, bits int32
	step, tap int32
	checked   bool
}

// obsRec is the side-table record of one observer compare point.
type obsRec struct {
	acc, bits int32
}

// affTerm is one flattened affine contribution of a run read: its
// sensed bits selected by mask, XORed into write row dst.
type affTerm struct {
	dst  int32
	mask uint32
}

// Program is a compiled trace, shared read-only by all replay workers
// of a campaign; per-worker mutable state lives in Arena.
type Program struct {
	size  int
	width int

	// laneWords is the lane-block width W in 64-machine words: every
	// cell-bit owns W consecutive lane words, one batch simulates W*64
	// machines.  Lane group g (machines [g*64, g*64+64)) is word g of
	// each block, so each group in isolation has exactly the classic
	// 64-lane shape the fault-model hooks were written against.
	laneWords int

	// code holds one word per op and args its operands, index for
	// index.
	code     []uint32
	args     []operand
	terms    []affTerm
	lanePool []uint64
	fused    int // fused super-op count

	// Observer state layout: folds/observes are consumed in program
	// order by the kernels, rowPool holds the deduplicated step/tap
	// matrices, accWords sizes the arena's accumulator buffer and
	// obsBits its widest-observer scratch.
	folds    []foldRec
	observes []obsRec
	rowPool  []uint32
	accWords int
	obsBits  int

	// initLanes is the pre-run memory expanded to broadcast lane words;
	// arenas restore dirtied cells from it between batches.
	initLanes []uint64

	// sparse marks literal programs (no affine write, fold or observe):
	// a batch of one may skip every op on a cell no injected fault can
	// have disturbed, since every machine holds the clean value there.
	// Their write timeline lists each cell's writes in clock order, cell
	// c's at wclock/wlane[wstart[c]:wstart[c+1]]: the operation clock
	// the kernels assign the write and the lanePool offset of its data,
	// from which an arena restores a cell when a hook first reaches it.
	sparse bool
	wstart []int32
	wclock []uint32
	wlane  []int32

	trimmed int // trace ops dropped after the last detection point
	affine  bool
	// dense marks traces that write most of the array (full-array test
	// algorithms): per-cell dirty tracking would record nearly every
	// cell, so arenas skip it and restore wholesale between batches.
	dense bool
	// expect holds per cell-bit the checked-read polarity sets plus the
	// fault.ExpectFolded flag for bits feeding a signature observer;
	// see fault.TraceSummary.
	expect []uint8
}

// Size returns the number of memory cells.
func (p *Program) Size() int { return p.size }

// Width returns the cell width in bits.
func (p *Program) Width() int { return p.width }

// Ops returns the compiled instruction count.
func (p *Program) Ops() int { return len(p.code) }

// LaneWords returns the lane-block width W in 64-machine words.
func (p *Program) LaneWords() int { return p.laneWords }

// BatchFaults returns the machines simulated per replay pass:
// laneWords*64.
func (p *Program) BatchFaults() int { return p.laneWords * BatchSize }

// FusedOps returns how many read-check-write sequences the compiler
// collapsed into fused super-ops.
func (p *Program) FusedOps() int { return p.fused }

// TrimmedOps returns how many trailing trace ops the compiler dropped
// because no checked read follows them.
func (p *Program) TrimmedOps() int { return p.trimmed }

// Summary exposes the trace properties structural fault collapsing may
// condition on.
func (p *Program) Summary() fault.TraceSummary {
	return fault.TraceSummary{Width: p.width, Affine: p.affine, Expect: p.expect}
}

// appendLanes expands w into width broadcast lane words appended to the
// pool and returns their offset.
func (p *Program) appendLanes(w ram.Word) int32 {
	off := int32(len(p.lanePool))
	for b := 0; b < p.width; b++ {
		var l uint64
		if w>>uint(b)&1 == 1 {
			l = ^uint64(0)
		}
		p.lanePool = append(p.lanePool, l)
	}
	return off
}

// Compile lowers a recorded trace into a Program simulating
// laneWords*64 machines per batch (laneWords of 1 or 8).  It fails
// on traces replay would also reject: no detection points (checked
// reads or observer compares), an affine write referencing a read that
// never happened, or a fold/observe of an unregistered observer.  It
// also refuses an affine write whose sources are not all in the run of
// reads directly before it, the shape every recorder gives a step.
//
// Besides lowering, the compiler fuses each March-style
// read-check-write sequence — a checked, unfolded read immediately
// followed by a literal write of the same cell — into one opCheckWrite
// super-op: one dispatch, one lane load, one compare, one store, where
// the unfused stream pays two of each.
func Compile(tr *Trace, laneWords int) (*Program, error) {
	if !ValidLaneWords(laneWords) {
		return nil, fmt.Errorf("sim: unsupported lane width %d words (want 1 or 8)", laneWords)
	}
	if !tr.Replayable() {
		return nil, fmt.Errorf("sim: trace has no checked reads or observer compares — the runner does not annotate for replay")
	}
	last := -1
	for i := range tr.Ops {
		if (tr.Ops[i].Kind == ram.OpRead && tr.Ops[i].Checked) || tr.Ops[i].Kind == OpObserve {
			last = i
		}
	}
	ops := tr.Ops[:last+1]

	p := &Program{
		size:      tr.Size,
		width:     tr.Width,
		laneWords: laneWords,
		code:      make([]uint32, 0, len(ops)),
		args:      make([]operand, 0, len(ops)),
		trimmed:   len(tr.Ops) - len(ops),
		expect:    make([]uint8, tr.Size*tr.Width),
	}
	// Observer accumulator layout: one contiguous arena buffer, offsets
	// in registration order.
	obsOff := make([]int32, len(tr.Observers))
	for id, bits := range tr.Observers {
		obsOff[id] = int32(p.accWords)
		p.accWords += bits
		if bits > p.obsBits {
			p.obsBits = bits
		}
	}
	rowIndex := make(map[string]int32)
	internRows := func(rows []uint32) int32 {
		key := string(rowKey(rows))
		if off, ok := rowIndex[key]; ok {
			return off
		}
		off := int32(len(p.rowPool))
		p.rowPool = append(p.rowPool, rows...)
		rowIndex[key] = off
		return off
	}
	// initLanes layout (as for Arena.lanes): cell blocks of
	// laneWords*width words, word (c*laneWords+g)*width+b holding lane
	// group g of bit b — each group's block is contiguous per cell, so
	// the 64-lane hook adapters address their group with one offset.
	p.initLanes = make([]uint64, tr.Size*tr.Width*laneWords)
	for c, w := range tr.Init {
		for b := 0; b < tr.Width; b++ {
			if w>>uint(b)&1 == 1 {
				for g := 0; g < laneWords; g++ {
					p.initLanes[(c*laneWords+g)*tr.Width+b] = ^uint64(0)
				}
			}
		}
	}

	if tr.Size > addrMask {
		return nil, fmt.Errorf("sim: %d cells exceed the compiler's %d-cell address space", tr.Size, addrMask)
	}
	written := make([]bool, tr.Size)
	distinct := 0
	reads := 0
	// stretch is the code index where the reads directly before the
	// current op begin: an affine write's run must start inside it.
	stretch := 0
	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		// Op fusion: a checked, unfolded read immediately followed by a
		// literal write of the same cell — the inner step of every March
		// element — collapses into one opCheckWrite super-op.  The read
		// still counts toward affine back distances; the write still
		// counts toward dense-trace detection and ends the stretch.
		if op.Kind == ram.OpRead && op.Checked && op.Fold == nil && i+1 < len(ops) {
			if nxt := &ops[i+1]; nxt.Kind == ram.OpWrite && nxt.Lin == nil && nxt.Addr == op.Addr {
				arg := operand{lane: p.appendLanes(op.Data), t0: p.appendLanes(nxt.Data)}
				for b := 0; b < tr.Width; b++ {
					p.expect[op.Addr*tr.Width+b] |= 1 << uint(op.Data>>uint(b)&1)
				}
				reads++
				if !written[nxt.Addr] {
					written[nxt.Addr] = true
					distinct++
				}
				p.code = append(p.code, uint32(op.Addr)|opCheckWrite<<opShift)
				p.args = append(p.args, arg)
				p.fused++
				stretch = len(p.code)
				i++
				continue
			}
		}
		oa, arg := uint32(op.Addr), operand{}
		switch {
		case op.Kind == OpObserve:
			if op.Addr < 0 || op.Addr >= len(tr.Observers) || tr.Observers[op.Addr] == 0 {
				return nil, fmt.Errorf("sim: observe of unregistered observer %d", op.Addr)
			}
			oa |= opObserve << opShift
			p.observes = append(p.observes, obsRec{
				acc: obsOff[op.Addr], bits: int32(tr.Observers[op.Addr]),
			})
		case op.Kind == ram.OpRead && op.Fold != nil:
			f := op.Fold
			if f.Obs < 0 || f.Obs >= len(tr.Observers) || tr.Observers[f.Obs] != len(f.Step) {
				return nil, fmt.Errorf("sim: fold into unregistered observer %d", f.Obs)
			}
			oa |= opFold << opShift
			arg.lane = p.appendLanes(op.Data)
			p.folds = append(p.folds, foldRec{
				acc:     obsOff[f.Obs],
				bits:    int32(len(f.Step)),
				step:    internRows(f.Step),
				tap:     internRows(f.Tap),
				checked: op.Checked,
			})
			for b := 0; b < tr.Width; b++ {
				if op.Checked {
					p.expect[op.Addr*tr.Width+b] |= 1 << uint(op.Data>>uint(b)&1)
				}
				for _, m := range f.Tap {
					if m>>uint(b)&1 == 1 {
						// The bit feeds a signature register: flag it so
						// trace-conditioned fault collapsing cannot pair
						// polarities whose fold streams differ.
						p.expect[op.Addr*tr.Width+b] |= fault.ExpectFolded
						break
					}
				}
			}
			reads++
		case op.Kind == ram.OpRead:
			if op.Checked {
				oa |= opCheck << opShift
				arg.lane = p.appendLanes(op.Data)
				for b := 0; b < tr.Width; b++ {
					p.expect[op.Addr*tr.Width+b] |= 1 << uint(op.Data>>uint(b)&1)
				}
			}
			reads++
		case op.Lin == nil:
			oa |= opWrite << opShift
			arg.lane = p.appendLanes(op.Data)
		default:
			oa |= opAffine << opShift
			p.affine = true
			arg.lane = p.appendLanes(op.Lin.Offset)
			for _, back := range op.Lin.Back {
				if back > reads {
					return nil, fmt.Errorf("sim: linear write references read %d back but only %d reads recorded", back, reads)
				}
				arg.t0 = max(arg.t0, int32(back))
			}
			head := len(p.code) - int(arg.t0)
			if head < stretch {
				return nil, fmt.Errorf("sim: linear write references read %d back but only the %d ops before it are reads", arg.t0, len(p.code)-stretch)
			}
			// Each run read gets the terms of the sources at its distance.
			for r := head; r < len(p.code); r++ {
				ra := &p.args[r]
				ra.t0 = int32(len(p.terms))
				for j, back := range op.Lin.Back {
					if back != len(p.code)-r {
						continue
					}
					for row, m := range op.Lin.Rows[j] {
						if m != 0 {
							p.terms = append(p.terms, affTerm{dst: int32(row), mask: m})
						}
					}
				}
				ra.tn = int32(len(p.terms)) - ra.t0
			}
			p.code = slices.Insert(p.code, head, oa)
			p.args = slices.Insert(p.args, head, arg)
		}
		if op.Kind == ram.OpWrite && !written[op.Addr] {
			written[op.Addr] = true
			distinct++
		}
		if oa>>opShift != opAffine {
			p.code = append(p.code, oa)
			p.args = append(p.args, arg)
		}
		if op.Kind != ram.OpRead {
			stretch = len(p.code)
		}
	}
	p.dense = 2*distinct >= tr.Size
	if !p.affine && len(p.folds) == 0 && len(p.observes) == 0 && uint64(len(p.code)) <= math.MaxUint32/2 {
		p.indexWrites()
	}
	return p, nil
}

// indexWrites marks a literal program sparse and builds its write
// timeline in two linear passes over the code: count each cell's
// writes, then place them, ticking the clock as the kernels do (one
// tick per op, two for a fused opCheckWrite, whose write is the
// second).  2*len(code) bounds the clock, so it fits the uint32 stamps.
func (p *Program) indexWrites() {
	p.sparse = true
	p.wstart = make([]int32, p.size+1)
	for _, oa := range p.code {
		if op := oa >> opShift; op == opWrite || op == opCheckWrite {
			p.wstart[oa&addrMask+1]++
		}
	}
	for c := 0; c < p.size; c++ {
		p.wstart[c+1] += p.wstart[c]
	}
	n := p.wstart[p.size]
	p.wclock, p.wlane = make([]uint32, n), make([]int32, n)
	next := append([]int32(nil), p.wstart[:p.size]...)
	var clock uint32
	for i, oa := range p.code {
		clock++
		lane := p.args[i].lane
		switch oa >> opShift {
		case opCheckWrite:
			clock++
			lane = p.args[i].t0
		case opWrite:
		default:
			continue
		}
		c := oa & addrMask
		p.wclock[next[c]], p.wlane[next[c]] = clock, lane
		next[c]++
	}
}

// rowKey serialises a row-mask matrix for deduplication in the shared
// row pool (folds of one observer typically repeat the same step/tap
// matrices thousands of times).
func rowKey(rows []uint32) []byte {
	b := make([]byte, 4*len(rows))
	for i, r := range rows {
		binary.LittleEndian.PutUint32(b[4*i:], r)
	}
	return b
}
