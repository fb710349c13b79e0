package ram

import "fmt"

// PortOpKind is the action a port performs in one cycle.
type PortOpKind int

const (
	// PortIdle performs no operation this cycle.
	PortIdle PortOpKind = iota
	// PortRead reads a cell.
	PortRead
	// PortWrite writes a cell.
	PortWrite
)

// PortOp is one port's action in a cycle.
type PortOp struct {
	Kind PortOpKind
	Addr int
	Data Word // for writes
}

// Idle returns a no-op port action.
func Idle() PortOp { return PortOp{Kind: PortIdle} }

// ReadOp returns a read action.
func ReadOp(addr int) PortOp { return PortOp{Kind: PortRead, Addr: addr} }

// WriteOp returns a write action.
func WriteOp(addr int, v Word) PortOp { return PortOp{Kind: PortWrite, Addr: addr, Data: v} }

// MultiPort is an n-cell, m-bit memory with P independent ports that
// operate simultaneously within a cycle.  Semantics per cycle:
//
//  1. all reads sample the state at the start of the cycle;
//  2. all writes commit afterwards; if two ports write the same cell in
//     the same cycle the lowest-numbered port wins and the event is
//     counted in WriteConflicts (real dual-port SRAMs leave this
//     undefined — the model makes it deterministic and observable).
//
// This read-before-write ordering is what lets the Fig. 2 dual-port PRT
// scheme overlap the read of cell i+1 with the write of cell i+2 and
// finish a π-iteration in 2n cycles instead of 3n operations.
type MultiPort struct {
	mem            Memory
	ports          int
	Cycles         uint64
	PortReads      []uint64
	PortWrites     []uint64
	WriteConflicts uint64
}

// NewMultiPort returns a P-port memory of n cells, m bits each, backed
// by a fresh WOM array.
func NewMultiPort(n, m, ports int) *MultiPort {
	return NewMultiPortOn(NewWOM(n, m), ports)
}

// NewMultiPortOn attaches a P-port front end to an existing backing
// memory — in particular one wrapped by a fault injector, which is how
// multi-port fault campaigns are built.
func NewMultiPortOn(mem Memory, ports int) *MultiPort {
	if ports < 1 || ports > 8 {
		panic(fmt.Sprintf("ram: port count %d out of range [1,8]", ports))
	}
	return &MultiPort{
		mem:        mem,
		ports:      ports,
		PortReads:  make([]uint64, ports),
		PortWrites: make([]uint64, ports),
	}
}

// NewDualPort returns the two-port (2P) memory of §4 of the paper.
func NewDualPort(n, m int) *MultiPort { return NewMultiPort(n, m, 2) }

// Ports returns the number of ports.
func (mp *MultiPort) Ports() int { return mp.ports }

// Size returns the number of cells.
func (mp *MultiPort) Size() int { return mp.mem.Size() }

// Width returns the cell width in bits.
func (mp *MultiPort) Width() int { return mp.mem.Width() }

// Cycle performs one memory cycle with one action per port (len(ops)
// must equal Ports()).  It returns the read results aligned with ops
// (entries for non-read ops are zero).
func (mp *MultiPort) Cycle(ops []PortOp) []Word {
	if len(ops) != mp.ports {
		panic(fmt.Sprintf("ram: %d ops for %d ports", len(ops), mp.ports))
	}
	mp.Cycles++
	out := make([]Word, len(ops))
	// Phase 1: sample reads against the pre-cycle state.
	for p, op := range ops {
		if op.Kind == PortRead {
			out[p] = mp.mem.Read(op.Addr)
			mp.PortReads[p]++
		}
	}
	// Phase 2: commit writes, lowest port wins conflicts.
	written := make(map[int]bool, 2)
	for p, op := range ops {
		if op.Kind != PortWrite {
			continue
		}
		mp.PortWrites[p]++
		if written[op.Addr] {
			mp.WriteConflicts++
			continue
		}
		written[op.Addr] = true
		mp.mem.Write(op.Addr, op.Data)
	}
	return out
}

// Backing returns the underlying single-port array, for direct
// inspection by tests and the campaign engine.  Mutating it bypasses
// cycle accounting.
func (mp *MultiPort) Backing() Memory { return mp.mem }
