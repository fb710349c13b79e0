package fault

// View is a read-only positional view of a fault universe: no fault
// instances are copied, and Index maps each view position back to the
// universe index its verdict belongs to.  CollapseView takes one, so
// structural collapsing works on whatever subset a caller presents.
// Span is the identity view over a slice.
type View interface {
	// Len returns the number of faults in the view.
	Len() int
	// At returns the fault at view position i.
	At(i int) Fault
	// Index maps view position i to its position in the universe.
	Index(i int) int
}

// span is the identity View over a fault slice.
type span []Fault

// Span returns the identity view over the whole slice.
func Span(faults []Fault) View { return span(faults) }

// Len implements View.
func (v span) Len() int { return len(v) }

// At implements View.
func (v span) At(i int) Fault { return v[i] }

// Index implements View.
func (v span) Index(i int) int { return i }
