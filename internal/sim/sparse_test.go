package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/ram"
)

// reachingFaults draws count faults on an n-cell, m-bit memory whose
// hooks reach cells with no hook of their own — coupling victims and
// state aggressors, alias and multi-access targets, bridge partners,
// and on a bit-oriented memory NPSF neighbourhoods — mixed with
// retention faults whose delays end anywhere in the trace, so inside
// runs of ops a sparse batch skips.
func reachingFaults(n, m, count int, seed int64) []fault.Fault {
	rng := rand.New(rand.NewSource(seed))
	pair := func() (int, int) {
		a := rng.Intn(n)
		return a, (a + 1 + rng.Intn(n-1)) % n
	}
	kinds := 7
	if m == 1 {
		kinds = 9
	}
	out := make([]fault.Fault, 0, count)
	for len(out) < count {
		a, v := pair()
		ab, vb := rng.Intn(m), rng.Intn(m)
		bit := ram.Word(rng.Intn(2))
		switch rng.Intn(kinds) {
		case 0:
			out = append(out, fault.CFin{AggCell: a, AggBit: ab, VicCell: v, VicBit: vb, Up: bit == 1})
		case 1:
			out = append(out, fault.CFid{AggCell: a, AggBit: ab, VicCell: v, VicBit: vb, Up: rng.Intn(2) == 1, Value: bit})
		case 2:
			out = append(out, fault.CFst{AggCell: a, AggBit: ab, VicCell: v, VicBit: vb, AggValue: ram.Word(rng.Intn(2)), Value: bit})
		case 3:
			out = append(out, fault.AF{Kind: fault.AFAlias + fault.AFKind(rng.Intn(2)), Addr: a, Target: v})
		case 4:
			out = append(out, fault.BF{CellA: a, BitA: ab, CellB: v, BitB: vb, And: bit == 1})
		case 5, 6:
			// Delays from one op to past the whole trace.
			out = append(out, fault.DRF{Cell: a, Bit: ab, Decay: bit, Delay: uint64(1 + rng.Intn(40*n*m))})
		case 7:
			out = append(out, fault.SNPSF{Nb: fault.GridNeighbourhood(a, n, 8), Pattern: ram.Word(rng.Intn(16)), Value: bit})
		default:
			out = append(out, fault.ANPSF{Nb: fault.GridNeighbourhood(a, n, 8), Trigger: rng.Intn(4), Up: rng.Intn(2) == 1,
				Pattern: ram.Word(rng.Intn(16)), Value: bit})
		}
	}
	return out
}

// withStuckOpen turns every fifth fault into a stuck-open fault of an
// n-cell memory, so each lane group holds a dozen of them.
func withStuckOpen(faults []fault.Fault, n int) []fault.Fault {
	out := append([]fault.Fault(nil), faults...)
	for i := 0; i < len(out); i += 5 {
		out[i] = fault.SOF{Cell: (3 * i) % n}
	}
	return out
}

// sparseBatches cuts batches of up to width faults from
// reachingFaults.  Small batches leave most cells unhooked, so hooks
// reach cells with no hook of their own even on a small memory, and at
// 512 lanes they fill one to three lane groups; batches 1 and 4 carry a
// stuck-open fault, whose every-read hook forces the dense fallback.
func sparseBatches(n, m, width int, seed int64) (batches [][]fault.Fault, sof []bool) {
	sizes := []int{min(width, 20), min(width, 70), min(width, 130), width, width/2 + 5}
	pool := reachingFaults(n, m, 3*width, seed)
	for k, size := range sizes {
		b := append([]fault.Fault(nil), pool[k*size%width:][:size]...)
		withSOF := k%3 == 1
		if withSOF {
			b[len(b)/2] = fault.SOF{Cell: (7 * k) % n}
		}
		batches = append(batches, b)
		sof = append(sof, withSOF)
	}
	return batches, sof
}

// TestSparseReplayMatchesReplayBatch: a sparse batch skips every op on
// a cell no fault has reached, so it is exact only if (a) a hook's
// first touch of such a cell restores its clean value, (b) skipped ops
// tick the clock the retention faults decay on, and (c) a batch holding
// an every-read hook runs dense.  Every batch — March C− and March B,
// a 64-cell BOM and a 32×4 WOM, 64 and 512 lanes — must reproduce the
// interpreter's masks and end at the clock of the same program replayed
// dense, and the sparse batches must really have skipped ops, so the
// test cannot pass vacuously.
func TestSparseReplayMatchesReplayBatch(t *testing.T) {
	traces := []struct {
		name string
		n, m int
		tr   *Trace
	}{
		{"bom/March C-", 64, 1, recordMarch(t, march.MarchCMinus(), 64)},
		{"bom/March B", 64, 1, recordMarch(t, march.MarchB(), 64)},
		{"wom/March C-", 32, 4, recordWOM(t, march.MarchCMinus(), 32, 4)},
		{"wom/March B", 32, 4, recordWOM(t, march.MarchB(), 32, 4)},
	}
	for _, tc := range traces {
		for _, W := range []int{1, MaxLaneWords} {
			t.Run(fmt.Sprintf("%s/lanes=%d", tc.name, W*BatchSize), func(t *testing.T) {
				p, err := Compile(tc.tr, W)
				if err != nil {
					t.Fatal(err)
				}
				if !p.sparse {
					t.Fatal("a March program must compile sparse")
				}
				a := NewArena(p)
				det := make([]uint64, W)
				dense := *p
				dense.sparse = false
				da := NewArena(&dense)
				ddet := make([]uint64, W)
				var executed, scheduled, restored uint64
				batches, sof := sparseBatches(tc.n, tc.m, p.BatchFaults(), int64(tc.n*tc.m+W))
				for k, b := range batches {
					if err := p.ReplayInto(a, b, det); err != nil {
						t.Fatal(err)
					}
					if a.sparse == sof[k] {
						t.Fatalf("batch %d (stuck-open %v) ran sparse=%v", k, sof[k], a.sparse)
					}
					if err := dense.ReplayInto(da, b, ddet); err != nil {
						t.Fatal(err)
					}
					if a.clock != da.clock {
						t.Fatalf("batch %d ended at clock %d, replayed dense at %d", k, a.clock, da.clock)
					}
					if !sof[k] {
						executed += a.executed
						scheduled += uint64(p.Ops())
						for _, f := range a.flags {
							if f&flagLive != 0 {
								restored++
							}
						}
					}
					for g := 0; g*BatchSize < len(b); g++ {
						sub := b[g*BatchSize : min((g+1)*BatchSize, len(b))]
						want, err := ReplayBatch(tc.tr, sub)
						if err != nil {
							t.Fatal(err)
						}
						if det[g] != want {
							t.Fatalf("batch %d group %d (stuck-open %v):\n  compiled    %064b\n  interpreter %064b", k, g, sof[k], det[g], want)
						}
					}
				}
				if executed >= scheduled || restored == 0 {
					t.Fatalf("sparse batches executed %d of %d ops and restored %d cells: the sparse path did not engage", executed, scheduled, restored)
				}
			})
		}
	}
}

// TestNonLiteralProgramsNeverSkip: an affine recurrence (PRT, BIST) or
// a signature fold (MISR) spreads errors through cells no hook touches,
// so their batches run dense — a pass that no early detection cuts
// short executes every op, at 64 and 512 lanes, and ends at the clock
// the interpreter's Array reaches over the compiled trace ops.
func TestNonLiteralProgramsNeverSkip(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, m int
		tr   *Trace
	}{
		{"affine", 17, 4, recordPRT(t, 17, 4)},
		{"affine1", 24, 1, recordPRT(t, 24, 1)},
		{"bist", 17, 4, recordBIST(t, 17, 4)},
		{"bist1", 24, 1, recordBIST(t, 24, 1)},
		{"checked", 17, 4, recordCheckedRecurrence(t, 17, 4)},
		{"checked1", 24, 1, recordCheckedRecurrence(t, 24, 1)},
		{"observer", 24, 4, recordObserver(t, 24, 4)},
	} {
		// Retention faults that never decay keep the pass running to its
		// end; at 512 lanes they fill two lane groups.
		var batch []fault.Fault
		for c := 0; len(batch) < 70; c = (c + 1) % tc.n {
			batch = append(batch, fault.DRF{Cell: c, Bit: len(batch) % tc.m, Delay: 1 << 62})
		}
		for _, W := range []int{1, MaxLaneWords} {
			p, err := Compile(tc.tr, W)
			if err != nil {
				t.Fatal(err)
			}
			if p.sparse {
				t.Fatalf("%s: compiled sparse", tc.name)
			}
			a := NewArena(p)
			det := make([]uint64, W)
			if err := p.ReplayInto(a, batch[:min(len(batch), p.BatchFaults())], det); err != nil {
				t.Fatal(err)
			}
			if got := a.executed; got != uint64(p.Ops()) {
				t.Errorf("%s at %d lanes: executed %d of %d ops", tc.name, W*BatchSize, got, p.Ops())
			}
			if want := interpreterClock(tc.tr, len(tc.tr.Ops)-p.TrimmedOps()); a.clock != want {
				t.Errorf("%s at %d lanes: the pass ended at clock %d, the interpreter at %d", tc.name, W*BatchSize, a.clock, want)
			}
		}
	}
}

// TestStuckOpenGroupsMatchReplayBatch: the stuck-open faults of a lane
// group share one every-read hook that records the group's sensed
// words, and each fault's read hook on its own cell returns its lanes of
// them.  Batches holding a dozen stuck-open faults per group, beside
// faults whose hooks reach other cells, must reproduce the
// interpreter's masks on March C− (BOM and WOM) and on PRT-3's fused
// runs, at 64 and 512 lanes, and run dense.
func TestStuckOpenGroupsMatchReplayBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, m int
		tr   *Trace
	}{
		{"bom/March C-", 48, 1, recordMarch(t, march.MarchCMinus(), 48)},
		{"wom/March C-", 32, 4, recordWOM(t, march.MarchCMinus(), 32, 4)},
		{"bom/PRT-3", 24, 1, recordPRT(t, 24, 1)},
		{"wom/PRT-3", 17, 4, recordPRT(t, 17, 4)},
	} {
		faults := withStuckOpen(reachingFaults(tc.n, tc.m, 700, int64(tc.n)), tc.n)
		for _, W := range []int{1, MaxLaneWords} {
			t.Run(fmt.Sprintf("%s/lanes=%d", tc.name, W*BatchSize), func(t *testing.T) {
				p, err := Compile(tc.tr, W)
				if err != nil {
					t.Fatal(err)
				}
				a := NewArena(p)
				det := make([]uint64, W)
				for lo := 0; lo < len(faults); lo += p.BatchFaults() {
					b := faults[lo:min(lo+p.BatchFaults(), len(faults))]
					if err := p.ReplayInto(a, b, det); err != nil {
						t.Fatal(err)
					}
					if a.sparse {
						t.Fatalf("batch at %d holds stuck-open faults but ran sparse", lo)
					}
					for g := 0; g*BatchSize < len(b); g++ {
						want, err := ReplayBatch(tc.tr, b[g*BatchSize:min((g+1)*BatchSize, len(b))])
						if err != nil {
							t.Fatal(err)
						}
						if det[g] != want {
							t.Fatalf("batch at %d group %d:\n  compiled    %064b\n  interpreter %064b", lo, g, det[g], want)
						}
					}
				}
			})
		}
	}
}
