package ram

import "fmt"

// Stats wraps a Memory and counts operations, for tests that need a
// Memory whose reads and writes they can count.
type Stats struct {
	Mem    Memory
	Reads  uint64
	Writes uint64
}

// NewStats returns a counting wrapper around mem.
func NewStats(mem Memory) *Stats { return &Stats{Mem: mem} }

// Read delegates and counts.
func (s *Stats) Read(addr int) Word {
	s.Reads++
	return s.Mem.Read(addr)
}

// Write delegates and counts.
func (s *Stats) Write(addr int, v Word) {
	s.Writes++
	s.Mem.Write(addr, v)
}

// Size delegates.
func (s *Stats) Size() int { return s.Mem.Size() }

// Width delegates.
func (s *Stats) Width() int { return s.Mem.Width() }

// Ops returns the total number of read+write operations.
func (s *Stats) Ops() uint64 { return s.Reads + s.Writes }

// Reset zeroes the counters.
func (s *Stats) Reset() { s.Reads, s.Writes = 0, 0 }

// OpKind distinguishes trace entries.
type OpKind int

const (
	// OpRead is a read access.
	OpRead OpKind = iota
	// OpWrite is a write access.
	OpWrite
)

func (k OpKind) String() string {
	if k == OpRead {
		return "r"
	}
	return "w"
}

// Access is one traced memory operation.
type Access struct {
	Kind OpKind
	Addr int
	Data Word // value read or written
}

// String renders the access in March-style shorthand, e.g. "r[5]=1".
func (a Access) String() string {
	return fmt.Sprintf("%s[%d]=%d", a.Kind, a.Addr, a.Data)
}

// Trace wraps a Memory and records every access up to Limit entries
// (0 = unlimited).  Used by tests asserting exact access patterns.
type Trace struct {
	Mem      Memory
	Limit    int
	Accesses []Access
	Dropped  uint64
}

// NewTrace returns a tracing wrapper with the given entry limit.
func NewTrace(mem Memory, limit int) *Trace {
	return &Trace{Mem: mem, Limit: limit}
}

func (t *Trace) record(a Access) {
	if t.Limit > 0 && len(t.Accesses) >= t.Limit {
		t.Dropped++
		return
	}
	t.Accesses = append(t.Accesses, a)
}

// Read delegates and records.
func (t *Trace) Read(addr int) Word {
	v := t.Mem.Read(addr)
	t.record(Access{Kind: OpRead, Addr: addr, Data: v})
	return v
}

// Write delegates and records.
func (t *Trace) Write(addr int, v Word) {
	t.Mem.Write(addr, v)
	t.record(Access{Kind: OpWrite, Addr: addr, Data: v})
}

// Size delegates.
func (t *Trace) Size() int { return t.Mem.Size() }

// Width delegates.
func (t *Trace) Width() int { return t.Mem.Width() }
