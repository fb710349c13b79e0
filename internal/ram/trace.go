package ram

// OpKind distinguishes the entries of an operation trace (package sim
// records one).
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

// TraceAnnotator is implemented by instrumented memories (the trace
// recorder of package sim) that capture an operation stream for later
// bit-parallel replay.  Test executors that know the semantics of
// their own operations call the annotation helpers below after each
// operation; on a plain Memory the helpers are no-ops, so executors
// behave identically whether or not they run instrumented.
//
// Two properties of an op stream matter for replay:
//
//   - which reads are *checked*, i.e. compared by the algorithm
//     against its fault-free expected value (a March rD op, a PRT
//     signature/verify/stale read).  On a fault-free memory the
//     expected value always equals the recorded clean read value, so a
//     replayed machine is detected exactly when one of its checked
//     reads diverges from the recorded value.
//   - how write data derives from earlier reads.  March stimuli are
//     literal (data-independent), but the π-test recurrence writes a
//     GF(2)-affine combination of the k preceding reads; replaying the
//     literal clean value would sever the error propagation that makes
//     pseudo-ring testing work.  AnnotateLinear captures the exact
//     affine map so the replay can recompute each faulty machine's
//     write from that machine's own (possibly corrupted) reads.
//   - which reads feed a *signature observer* (a MISR or serial
//     signature register) instead of a per-read comparator.  The
//     observer is a GF(2)-linear accumulator: each fold applies a
//     linear step to the accumulator and XORs in a linear map of the
//     read word, and a compare point tests the accumulator against the
//     algorithm's prediction.  Because the fold is affine, the
//     faulty-minus-clean accumulator difference evolves linearly in
//     the read differences, so replay reproduces signature aliasing
//     exactly: a machine detects at a compare point iff its
//     accumulated difference is nonzero — multi-error patterns that
//     cancel in the register escape, just as in hardware.
type TraceAnnotator interface {
	// AnnotateChecked marks the most recent read as compared against
	// its fault-free expected value.
	AnnotateChecked()
	// AnnotateLinear marks the most recent write as the GF(2)-affine
	// function of earlier reads:
	//
	//	bit r of data = bit r of offset XOR
	//	    XOR_{j, s : rows[j][r] has bit s set} (bit s of read_j)
	//
	// where read_j is the back[j]-th most recent read (back distances
	// are 1-based: back = 1 is the read immediately preceding the
	// write).  back and rows are parallel; the callee copies both.
	AnnotateLinear(back []int, rows [][]uint32, offset Word)
	// AnnotateFold marks the most recent read as folded into signature
	// observer obs (a small caller-chosen id):
	//
	//	acc ← step·acc ⊕ tap·read
	//
	// where step is the square GF(2) matrix applied to the accumulator
	// (bit s of step[r] set when accumulator bit s feeds new bit r —
	// the α-multiply of a MISR) and tap maps the read word's bits into
	// the fold (bit s of tap[r] set when read bit s feeds accumulator
	// bit r).  step and tap are parallel (one row per accumulator bit,
	// 1–32 bits); the callee copies both.  All folds into one observer
	// must agree on the accumulator width.
	AnnotateFold(obs int, step, tap []uint32)
	// AnnotateObserved marks a compare point for observer obs: the
	// algorithm compares the accumulator against its fault-free
	// prediction here.  On a clean run the prediction equals the
	// accumulated clean signature, so a replayed machine is detected
	// at the compare point exactly when its accumulator diverges.
	AnnotateObserved(obs int)
}

// AnnotateChecked marks the last read on mem as checked when mem
// records a trace; otherwise it is a no-op.
func AnnotateChecked(mem Memory) {
	if a, ok := mem.(TraceAnnotator); ok {
		a.AnnotateChecked()
	}
}

// AnnotateLinear marks the last write on mem as an affine function of
// earlier reads when mem records a trace; otherwise it is a no-op.
func AnnotateLinear(mem Memory, back []int, rows [][]uint32, offset Word) {
	if a, ok := mem.(TraceAnnotator); ok {
		a.AnnotateLinear(back, rows, offset)
	}
}

// AnnotateFold marks the last read on mem as folded into signature
// observer obs when mem records a trace; otherwise it is a no-op.
func AnnotateFold(mem Memory, obs int, step, tap []uint32) {
	if a, ok := mem.(TraceAnnotator); ok {
		a.AnnotateFold(obs, step, tap)
	}
}

// AnnotateObserved marks a compare point for observer obs when mem
// records a trace; otherwise it is a no-op.
func AnnotateObserved(mem Memory, obs int) {
	if a, ok := mem.(TraceAnnotator); ok {
		a.AnnotateObserved(obs)
	}
}
