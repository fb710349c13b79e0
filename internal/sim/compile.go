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

	"repro/internal/fault"
	"repro/internal/ram"
)

// This file is the trace compiler: Trace.Ops — a per-op tree of kinds,
// annotations and Linear/Fold pointers — is lowered once per campaign
// into a flat instruction stream the replay kernels execute with no
// per-op decoding beyond a six-way opcode dispatch.  Compilation
// pre-resolves everything the generic replay loop recomputes per batch:
//
//   - lane offsets (cell*width) per instruction;
//   - clean data and expected checked-read values, expanded from Words
//     into broadcast lane words in one shared pool;
//   - affine recurrence writes, flattened into (back, dst, mask) terms;
//   - signature folds and observer compare points, resolved to offsets
//     into a per-arena accumulator buffer with their GF(2) matrices
//     deduplicated in one shared row pool;
//   - the trace suffix after the last detection point (checked read or
//     observer compare), which is trimmed: ops past the final
//     comparison cannot affect detection.

// Instruction opcodes, stored in the top three bits of instr.opAddr.
// The read-like opcodes (<= opFold) and write-like opcodes share their
// kernel prologue, so the ordering is load-bearing.  opCheckWrite is
// the fused super-op (read + check + literal write on one cell) and is
// dispatched explicitly before the read/write split.
const (
	opRead       uint32 = iota // plain read: sense + hooks + history
	opCheck                    // checked read: opRead + comparison against lanes
	opFold                     // read folded into a signature observer (side table)
	opWrite                    // broadcast write of a literal clean value
	opAffine                   // write recomputed from earlier reads (GF(2)-affine)
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

// instr is one compiled operation, packed to 16 bytes so large traces
// stream through cache.  opAddr carries the opcode in its top three
// bits and the cell index below.  lane indexes the program's lanePool
// (width words): the expected value for opCheck, the literal data for
// opWrite, the affine offset for opAffine.  terms[t0:t0+tn] are the
// affine terms of an opAffine.  A fused opCheckWrite keeps the
// expected value in lane and reuses t0 (free: fused ops are never
// affine) as the lanePool offset of the literal write data.
type instr struct {
	opAddr uint32
	lane   int32 // offset into lanePool
	t0, tn int32
}

// Width-1 instruction packing: the whole operation fits one uint32 —
// opcode in the top three bits, the single data/expected bit below it,
// the cell in the low 28 bits — quartering the instruction stream the
// width-1 kernel pulls through cache.  Affine ops keep their terms in
// a side table (aff1) consumed in program order; folds and observes
// consume the shared folds/observes tables, also in program order, and
// fused opCheckWrite ops pull their write bit from the fus1 side table
// (the packed word only has room for the expected bit).
const (
	w1DataShift = 28
	w1AddrMask  = 1<<w1DataShift - 1
)

// affEntry is the side-table record of one width-1 affine write.
type affEntry struct {
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

// affTerm is one flattened affine contribution: source-read bits
// selected by mask, from the read back steps ago, XORed into output
// row dst.
type affTerm struct {
	back int32
	dst  int32
	mask uint32
}

// Program is a compiled trace, shared read-only by all replay workers
// of a campaign; per-worker mutable state lives in Arena.
type Program struct {
	size    int
	width   int
	maxBack int

	// laneWords is the lane-block width W in 64-machine words: every
	// cell-bit owns W consecutive lane words, one batch simulates W*64
	// machines.  Lane group g (machines [g*64, g*64+64)) is word g of
	// each block, so each group in isolation has exactly the classic
	// 64-lane shape the fault-model hooks were written against.
	laneWords int

	code     []instr
	terms    []affTerm
	lanePool []uint64

	// Width-1 specialization: one packed uint32 per op plus the affine
	// side table; empty for wider memories.
	code1 []uint32
	aff1  []affEntry

	// fus1 holds the write bits of width-1 fused opCheckWrite ops,
	// consumed in program order (the packed word carries only the
	// expected bit).
	fus1  []uint8
	fused int // fused super-op count

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
// never happened, or a fold/observe of an unregistered observer.
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
		maxBack:   tr.MaxBack,
		laneWords: laneWords,
		code:      make([]instr, 0, len(ops)),
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

	limit := addrMask
	if tr.Width == 1 {
		limit = w1AddrMask
	}
	if tr.Size > limit {
		return nil, fmt.Errorf("sim: %d cells exceed the compiler's %d-cell address space", tr.Size, limit)
	}
	written := make([]bool, tr.Size)
	distinct := 0
	reads := 0
	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		// Op fusion: a checked, unfolded read immediately followed by a
		// literal write of the same cell — the inner step of every March
		// element — collapses into one opCheckWrite super-op.  The read
		// still counts toward affine back distances and pushes history;
		// the write still counts toward dense-trace detection.
		if op.Kind == ram.OpRead && op.Checked && op.Fold == nil && i+1 < len(ops) {
			if nxt := &ops[i+1]; nxt.Kind == ram.OpWrite && nxt.Lin == nil && nxt.Addr == op.Addr {
				in := instr{opAddr: uint32(op.Addr) | opCheckWrite<<opShift}
				in.lane = p.appendLanes(op.Data)
				in.t0 = p.appendLanes(nxt.Data)
				for b := 0; b < tr.Width; b++ {
					p.expect[op.Addr*tr.Width+b] |= 1 << uint(op.Data>>uint(b)&1)
				}
				reads++
				if !written[nxt.Addr] {
					written[nxt.Addr] = true
					distinct++
				}
				p.code = append(p.code, in)
				p.fused++
				i++
				continue
			}
		}
		in := instr{opAddr: uint32(op.Addr)}
		switch {
		case op.Kind == OpObserve:
			if op.Addr < 0 || op.Addr >= len(tr.Observers) || tr.Observers[op.Addr] == 0 {
				return nil, fmt.Errorf("sim: observe of unregistered observer %d", op.Addr)
			}
			in.opAddr = uint32(op.Addr) | opObserve<<opShift
			p.observes = append(p.observes, obsRec{
				acc: obsOff[op.Addr], bits: int32(tr.Observers[op.Addr]),
			})
		case op.Kind == ram.OpRead && op.Fold != nil:
			f := op.Fold
			if f.Obs < 0 || f.Obs >= len(tr.Observers) || tr.Observers[f.Obs] != len(f.Step) {
				return nil, fmt.Errorf("sim: fold into unregistered observer %d", f.Obs)
			}
			in.opAddr |= opFold << opShift
			in.lane = p.appendLanes(op.Data)
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
				in.opAddr |= opCheck << opShift
				in.lane = p.appendLanes(op.Data)
				for b := 0; b < tr.Width; b++ {
					p.expect[op.Addr*tr.Width+b] |= 1 << uint(op.Data>>uint(b)&1)
				}
			}
			reads++
		case op.Lin == nil:
			in.opAddr |= opWrite << opShift
			in.lane = p.appendLanes(op.Data)
		default:
			in.opAddr |= opAffine << opShift
			p.affine = true
			in.lane = p.appendLanes(op.Lin.Offset)
			in.t0 = int32(len(p.terms))
			for j, back := range op.Lin.Back {
				if back > reads {
					return nil, fmt.Errorf("sim: linear write references read %d back but only %d reads recorded", back, reads)
				}
				for r, m := range op.Lin.Rows[j] {
					if m != 0 {
						p.terms = append(p.terms, affTerm{back: int32(back), dst: int32(r), mask: m})
					}
				}
			}
			in.tn = int32(len(p.terms)) - in.t0
		}
		if op.Kind == ram.OpWrite && !written[op.Addr] {
			written[op.Addr] = true
			distinct++
		}
		p.code = append(p.code, in)
	}
	p.dense = 2*distinct >= tr.Size
	if tr.Width == 1 {
		p.pack1()
	}
	return p, nil
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

// pack1 builds the width-1 instruction stream from the compiled (and
// fused) code: the data/expected bit rides in the instruction word
// (recovered from the instruction's lanePool entry — width 1, so one
// broadcast word per entry), affine term windows in a side table,
// fused write bits in fus1; folds and observes consume the shared side
// tables in program order.
func (p *Program) pack1() {
	p.code1 = make([]uint32, 0, len(p.code))
	bit := func(off int32) uint32 { return uint32(p.lanePool[off] & 1) }
	for i := range p.code {
		in := &p.code[i]
		oa := in.opAddr
		switch in.opAddr >> opShift {
		case opRead, opObserve:
			// No data bit: a plain read senses whatever is stored, an
			// observe touches no memory.
		case opAffine:
			oa |= bit(in.lane) << w1DataShift
			p.aff1 = append(p.aff1, affEntry{t0: in.t0, tn: in.tn})
		case opCheckWrite:
			oa |= bit(in.lane) << w1DataShift
			p.fus1 = append(p.fus1, uint8(p.lanePool[in.t0]&1))
		default: // opCheck, opFold, opWrite
			oa |= bit(in.lane) << w1DataShift
		}
		p.code1 = append(p.code1, oa)
	}
}
