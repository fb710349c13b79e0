// Package march implements the March test framework for RAM testing —
// the baseline family the paper positions pseudo-ring testing against,
// in the formal notation of van de Goor that the paper's §1 cites:
//
//	MarchA = {c(w0); ⇑(r0,w1); ⇓(r1,w0)}
//
// where ⇑/⇓/c traverse the address space up, down, or in either order,
// and rD/wD read or write the data background D ∈ {0,1} (for
// word-oriented memories D selects the background value or its
// complement).
//
// The package provides the notation (Op, Element, Test), a parser and
// printer for the textual form, an executor that detects faults by
// comparing every read against the algorithm's expected value, data
// background generation for word-oriented memories, and a library of
// the classical algorithms (MATS through March LR).
package march

import (
	"fmt"

	"repro/internal/ram"
)

// Order is an address traversal direction.
type Order int

const (
	// Any means the element works in either direction (the paper's "c").
	// The executor runs it ascending.
	Any Order = iota
	// Up traverses addresses 0 → n-1 (the paper's ⇑).
	Up
	// Down traverses addresses n-1 → 0 (the paper's ⇓).
	Down
)

func (o Order) String() string {
	switch o {
	case Any:
		return "c"
	case Up:
		return "⇑"
	case Down:
		return "⇓"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Op is a single read or write of data background D (0 or 1).
type Op struct {
	Read bool
	D    int
}

// R returns a read of background d.
func R(d int) Op { return Op{Read: true, D: d} }

// W returns a write of background d.
func W(d int) Op { return Op{Read: false, D: d} }

func (o Op) String() string {
	if o.Read {
		return fmt.Sprintf("r%d", o.D)
	}
	return fmt.Sprintf("w%d", o.D)
}

// Element is one March element: an address order and an op sequence
// applied at every address before moving on.
type Element struct {
	Order Order
	Ops   []Op
}

func (e Element) String() string {
	s := e.Order.String() + "("
	for i, op := range e.Ops {
		if i > 0 {
			s += ","
		}
		s += op.String()
	}
	return s + ")"
}

// Test is a complete March algorithm.
type Test struct {
	Name  string
	Elems []Element
}

// String renders the algorithm in the paper's notation, e.g.
// "{c(w0);⇑(r0,w1);⇓(r1,w0)}".
func (t Test) String() string {
	s := "{"
	for i, e := range t.Elems {
		if i > 0 {
			s += ";"
		}
		s += e.String()
	}
	return s + "}"
}

// OpsPerCell returns the number of memory operations per address, the
// standard March complexity measure (e.g. 10n for March C- means
// OpsPerCell() == 10).
func (t Test) OpsPerCell() int {
	total := 0
	for _, e := range t.Elems {
		total += len(e.Ops)
	}
	return total
}

// Validate checks structural sanity: at least one element, non-empty
// op lists, D ∈ {0,1}, and no read that contradicts the cell's
// previous write.  The last check is static because every element
// visits every cell, so each cell sees the elements' op lists in
// order: a read of D after a write of the other value can never pass
// on a fault-free memory, whatever the addressing order.
func (t Test) Validate() error {
	if len(t.Elems) == 0 {
		return fmt.Errorf("march: %s has no elements", t.Name)
	}
	written := -1 // the data of the last write every cell has seen
	for i, e := range t.Elems {
		if len(e.Ops) == 0 {
			return fmt.Errorf("march: %s element %d is empty", t.Name, i)
		}
		if e.Order != Any && e.Order != Up && e.Order != Down {
			return fmt.Errorf("march: %s element %d has bad order", t.Name, i)
		}
		for _, op := range e.Ops {
			if op.D != 0 && op.D != 1 {
				return fmt.Errorf("march: %s element %d has data %d, want 0/1", t.Name, i, op.D)
			}
			switch {
			case !op.Read:
				written = op.D
			case written >= 0 && op.D != written:
				return fmt.Errorf("march: %s element %d reads %v after w%d", t.Name, i, op, written)
			}
		}
	}
	return nil
}

// Mismatch records the first failing read of a run.
type Mismatch struct {
	Addr     int
	Expected ram.Word
	Got      ram.Word
	Elem     int
	OpIndex  int
}

func (m Mismatch) String() string {
	return fmt.Sprintf("elem %d op %d @%d: read %#x, expected %#x",
		m.Elem, m.OpIndex, m.Addr, m.Got, m.Expected)
}

// Result is the outcome of running a March test.
type Result struct {
	Detected bool
	First    *Mismatch // nil when not detected
	Ops      uint64    // memory operations performed
}

// Run executes the test on mem with the given data background: rD/wD
// use background for D=0 and its complement for D=1, masked to the
// cell width.  Every read is compared against its background value,
// which Validate has checked agrees with the value the algorithm
// itself last wrote to that address (Run panics on a test Validate
// refuses).  The run continues after a mismatch so Ops reflects the
// full test length; First keeps the earliest failure.
func Run(t Test, mem ram.Memory, background ram.Word) Result {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	n := mem.Size()
	mask := ram.Word(1)<<uint(mem.Width()) - 1
	data := [2]ram.Word{background & mask, ^background & mask}
	var res Result

	for ei, e := range t.Elems {
		first, last, step := 0, n-1, 1
		if e.Order == Down {
			first, last, step = n-1, 0, -1
		}
		for a := first; ; a += step {
			for oi, op := range e.Ops {
				res.Ops++
				if op.Read {
					got := mem.Read(a)
					// Every March read is compared against the expected
					// background value, so every read is replay-checked.
					ram.AnnotateChecked(mem)
					want := data[op.D]
					if got != want && !res.Detected {
						res.Detected = true
						res.First = &Mismatch{Addr: a, Expected: want, Got: got, Elem: ei, OpIndex: oi}
					} else if got != want {
						res.Detected = true
					}
				} else {
					mem.Write(a, data[op.D])
				}
			}
			if a == last {
				break
			}
		}
	}
	return res
}

// FailingAddresses runs the test over the given backgrounds and
// returns the sorted set of addresses that produced at least one
// mismatching read.  Unlike the pseudo-ring walk, March reads compare
// each cell against its own expected value with no error propagation,
// so the failing set localises defects exactly — this is the
// repair-grade diagnosis input for redundancy allocation (see package
// repair).
func FailingAddresses(t Test, mem ram.Memory, backgrounds []ram.Word) []int {
	if len(backgrounds) == 0 {
		backgrounds = []ram.Word{0}
	}
	bad := map[int]bool{}
	for _, bg := range backgrounds {
		collectFailures(t, mem, bg, bad)
	}
	out := make([]int, 0, len(bad))
	for a := range bad {
		out = append(out, a)
	}
	sortInts(out)
	return out
}

// collectFailures is Run with per-address failure recording.
func collectFailures(t Test, mem ram.Memory, background ram.Word, bad map[int]bool) {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	n := mem.Size()
	mask := ram.Word(1)<<uint(mem.Width()) - 1
	data := [2]ram.Word{background & mask, ^background & mask}
	for _, e := range t.Elems {
		first, last, step := 0, n-1, 1
		if e.Order == Down {
			first, last, step = n-1, 0, -1
		}
		for a := first; ; a += step {
			for _, op := range e.Ops {
				if op.Read {
					if got := mem.Read(a); got != data[op.D] {
						bad[a] = true
					}
				} else {
					mem.Write(a, data[op.D])
				}
			}
			if a == last {
				break
			}
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// RunBackgrounds executes the test once per background and merges the
// results (detected if any run detects).  This is the standard way to
// extend bit-oriented March tests to word-oriented memories.
func RunBackgrounds(t Test, mem ram.Memory, backgrounds []ram.Word) Result {
	var merged Result
	for _, bg := range backgrounds {
		r := Run(t, mem, bg)
		merged.Ops += r.Ops
		if r.Detected && !merged.Detected {
			merged.Detected = true
			merged.First = r.First
		}
	}
	return merged
}

// DataBackgrounds returns the standard log2(m)+1 backgrounds for an
// m-bit word: all-zero, alternating single bits (0101…), alternating
// pairs (0011…), and so on.  With their implicit complements (taken by
// the r1/w1 ops) they distinguish every intra-word bit pair.
func DataBackgrounds(m int) []ram.Word {
	if m < 1 || m > 32 {
		panic(fmt.Sprintf("march: width %d out of range", m))
	}
	mask := ram.Word(1)<<uint(m) - 1
	out := []ram.Word{0}
	for span := 1; span < m; span *= 2 {
		var bg ram.Word
		for b := 0; b < m; b++ {
			if (b/span)&1 == 1 {
				bg |= 1 << uint(b)
			}
		}
		out = append(out, bg&mask)
	}
	return out
}
