package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/ram"
)

// ReplayBatch simulates up to 64 faults against the trace in one
// bit-parallel pass and returns the detection mask: bit l is set when
// machine l (fault faults[l]) produced at least one checked read
// diverging from the recorded fault-free value, or reached a signature
// observer's compare point with a nonzero accumulated difference.  The
// pass stops early once every machine of the batch has detected.
//
// This is the per-batch interpreter: it decodes Trace.Ops as recorded
// and rebuilds the machine array per call.  The compiled pipeline
// (Compile + Arena + Program.ReplayInto) is the allocation-free fast path;
// the kernels are property-tested batch-for-batch against this
// function, which stays as the readable reference.
func ReplayBatch(tr *Trace, faults []fault.Fault) (uint64, error) {
	if len(faults) == 0 {
		return 0, nil
	}
	if !tr.Replayable() {
		return 0, fmt.Errorf("sim: trace has no checked reads — the runner does not annotate for replay")
	}
	arr := NewArray(tr)
	if err := arr.Inject(faults); err != nil {
		return 0, err
	}

	full := ^uint64(0)
	if len(faults) < 64 {
		full = uint64(1)<<uint(len(faults)) - 1
	}

	// Ring of recent read lanes for affine recurrence writes: slot
	// (reads-back) mod len holds the back-th most recent read.
	var history [][]uint64
	if tr.MaxBack > 0 {
		history = make([][]uint64, tr.MaxBack)
		for i := range history {
			history[i] = make([]uint64, tr.Width)
		}
	}
	data := make([]uint64, tr.Width) // scratch for write lanes

	// Signature observers: accs[id] holds the per-lane faulty-minus-
	// clean accumulator difference, one lane word per accumulator bit.
	accs := make([][]uint64, len(tr.Observers))
	var accScratch []uint64
	for id, bits := range tr.Observers {
		accs[id] = make([]uint64, bits)
		if bits > len(accScratch) {
			accScratch = make([]uint64, bits)
		}
	}
	diff := make([]uint64, tr.Width) // scratch for fold differences

	var detected uint64
	reads := 0
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Kind == OpObserve {
			// Compare point: a machine whose accumulated signature
			// difference is nonzero diverges from the prediction.
			if op.Addr < 0 || op.Addr >= len(accs) {
				return 0, fmt.Errorf("sim: observe of unknown observer %d", op.Addr)
			}
			var d uint64
			for _, w := range accs[op.Addr] {
				d |= w
			}
			detected |= d & full
			if detected == full {
				break
			}
			continue
		}
		if op.Kind == ram.OpRead {
			val := arr.read(op.Addr)
			if history != nil {
				copy(history[reads%len(history)], val)
			}
			reads++
			if f := op.Fold; f != nil {
				if f.Obs < 0 || f.Obs >= len(accs) || len(accs[f.Obs]) != len(f.Step) {
					return 0, fmt.Errorf("sim: fold into unregistered observer %d", f.Obs)
				}
				for b := 0; b < tr.Width; b++ {
					var clean uint64
					if op.Data>>uint(b)&1 == 1 {
						clean = ^uint64(0)
					}
					diff[b] = val[b] ^ clean
				}
				acc := accs[f.Obs]
				for r := range acc {
					var nv uint64
					for m := f.Step[r]; m != 0; m &= m - 1 {
						nv ^= acc[bits.TrailingZeros32(m)]
					}
					for m := f.Tap[r]; m != 0; m &= m - 1 {
						nv ^= diff[bits.TrailingZeros32(m)]
					}
					accScratch[r] = nv
				}
				copy(acc, accScratch[:len(acc)])
			}
			if op.Checked {
				var d uint64
				for b := 0; b < tr.Width; b++ {
					var clean uint64
					if op.Data>>uint(b)&1 == 1 {
						clean = ^uint64(0)
					}
					d |= val[b] ^ clean
				}
				detected |= d & full
				if detected == full {
					break // every machine of the batch has detected
				}
			}
			continue
		}
		// Write: broadcast the literal clean value, or recompute the
		// affine recurrence from each machine's own earlier reads so
		// stored errors keep propagating exactly as in a real faulty
		// machine.
		if op.Lin == nil {
			for b := 0; b < tr.Width; b++ {
				if op.Data>>uint(b)&1 == 1 {
					data[b] = ^uint64(0)
				} else {
					data[b] = 0
				}
			}
		} else {
			lin := op.Lin
			for b := 0; b < tr.Width; b++ {
				if lin.Offset>>uint(b)&1 == 1 {
					data[b] = ^uint64(0)
				} else {
					data[b] = 0
				}
			}
			for j, back := range lin.Back {
				if back > reads {
					return 0, fmt.Errorf("sim: linear write references read %d back but only %d reads recorded", back, reads)
				}
				src := history[(reads-back)%len(history)]
				for r, rowMask := range lin.Rows[j] {
					for rm := rowMask; rm != 0; rm &= rm - 1 {
						data[r] ^= src[bits.TrailingZeros32(rm)]
					}
				}
			}
		}
		arr.write(op.Addr, data)
	}
	return detected & full, nil
}
