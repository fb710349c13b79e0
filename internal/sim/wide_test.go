package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
)

// wideTraceCases covers every kernel family the wide paths dispatch to:
// the width-1 kernel (march on a 1-bit memory), the generic multi-bit
// kernel, the affine recurrence path (PRT), and the fold/observe (MISR)
// path at both widths.  Each case pairs the trace with a fault universe
// whose size is deliberately NOT a multiple of any batch width, so the
// final partial batch exercises the idle-group masking too.
func wideTraceCases(t *testing.T) []struct {
	name   string
	tr     *Trace
	faults []fault.Fault
} {
	t.Helper()
	return []struct {
		name   string
		tr     *Trace
		faults []fault.Fault
	}{
		{"width1", recordMarch(t, march.MarchB(), 24),
			fault.StandardUniverse(24, 1, 8, 3).Faults},
		{"generic", recordWOM(t, march.MarchCMinus(), 24, 4),
			fault.StandardUniverse(24, 4, 8, 5).Faults},
		{"affine", recordPRT(t, 17, 4),
			fault.StandardUniverse(17, 4, 8, 7).Faults},
		{"observer1", recordObserver(t, 24, 1),
			fault.StandardUniverse(24, 1, 8, 9).Faults},
		{"observerN", recordObserver(t, 24, 4),
			fault.StandardUniverse(24, 4, 8, 9).Faults},
	}
}

// TestWideKernelMatchesWidth1 is the wide-lane equivalence property: a
// program compiled at 8 lane words must assign every fault the exact
// verdict of the classic single-word program — batch by batch,
// including the trailing partial batch — for every kernel family.
func TestWideKernelMatchesWidth1(t *testing.T) {
	const w = MaxLaneWords
	for _, tc := range wideTraceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			p1, err := Compile(tc.tr, 1)
			if err != nil {
				t.Fatal(err)
			}
			a1 := NewArena(p1)
			pw, err := Compile(tc.tr, w)
			if err != nil {
				t.Fatal(err)
			}
			if pw.LaneWords() != w || pw.BatchFaults() != w*BatchSize {
				t.Fatalf("lane geometry: LaneWords=%d BatchFaults=%d, want %d/%d",
					pw.LaneWords(), pw.BatchFaults(), w, w*BatchSize)
			}
			if pw.FusedOps() != p1.FusedOps() {
				t.Fatalf("fusion differs across widths: %d at w=%d, %d at w=1",
					pw.FusedOps(), w, p1.FusedOps())
			}
			aw := NewArena(pw)
			det := make([]uint64, w)
			for lo := 0; lo < len(tc.faults); lo += pw.BatchFaults() {
				hi := min(lo+pw.BatchFaults(), len(tc.faults))
				if err := pw.ReplayInto(aw, tc.faults[lo:hi], det); err != nil {
					t.Fatal(err)
				}
				// The wide batch's group g must equal the W=1 mask of the
				// corresponding 64-fault sub-batch.
				for g := 0; g*BatchSize < hi-lo; g++ {
					slo := lo + g*BatchSize
					shi := min(slo+BatchSize, hi)
					want, err := replay64(p1, a1, tc.faults[slo:shi])
					if err != nil {
						t.Fatal(err)
					}
					if det[g] != want {
						t.Fatalf("batch [%d:%d) group %d:\n  wide %064b\n  w=1  %064b",
							lo, hi, g, det[g], want)
					}
				}
			}
		})
	}
}

// TestWideShardsCompiledMatchesWidth1 runs the compiled streaming
// driver over a wide program: verdicts must be identical to the
// 64-wide interpreter reference at every worker count (batch
// boundaries move with the width, worker interleaving with the count —
// neither may show).
func TestWideShardsCompiledMatchesWidth1(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MarchB(), n)
	faults := fault.StandardUniverse(n, 1, 8, 11).Faults
	ctx := context.Background()
	ref := replayRef(t, tr, faults)
	pw, err := Compile(tr, MaxLaneWords)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		cs := newCollectSink()
		got, err := ShardsCompiledStream(ctx, pw, fault.SliceSource(faults),
			StreamConfig{Chunk: pw.BatchFaults(), Workers: workers}, cs.sinkFor)
		if err != nil {
			t.Fatal(err)
		}
		cs.check(t, fmt.Sprintf("workers=%d", workers), ref, len(got))
	}
}

// TestWideStreamMatchesWidth1 sweeps chunk sizes instead: chunk-local
// collapsing and the wide batch layout must compose without changing a
// single verdict of the interpreter reference, which never collapses.
func TestWideStreamMatchesWidth1(t *testing.T) {
	const n = 33
	tr := recordMarch(t, march.MarchCMinus(), n)
	faults := fault.StandardUniverse(n, 1, 6, 9).Faults
	ctx := context.Background()
	ref := replayRef(t, tr, faults)
	pw, err := Compile(tr, MaxLaneWords)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{7, 100, 4096} {
		cs := newCollectSink()
		if _, err := ShardsCompiledStream(ctx, pw, fault.SliceSource(faults),
			StreamConfig{Chunk: chunk, Workers: 3}, cs.sinkFor); err != nil {
			t.Fatal(err)
		}
		if cs.seen != len(faults) {
			t.Fatalf("chunk=%d: %d verdicts, want %d", chunk, cs.seen, len(faults))
		}
		for i := range faults {
			if cs.det[i] != ref[i] {
				t.Fatalf("chunk=%d fault %d: stream %v, width-1 %v", chunk, i, cs.det[i], ref[i])
			}
		}
	}
}

// TestWideReplaySteadyStateAllocatesNothing extends the zero-alloc
// hot-path guarantee to the wide kernels, for every kernel family.
func TestWideReplaySteadyStateAllocatesNothing(t *testing.T) {
	for _, tc := range wideTraceCases(t) {
		p, err := Compile(tc.tr, MaxLaneWords)
		if err != nil {
			t.Fatal(err)
		}
		a := NewArena(p)
		batch := tc.faults[:min(len(tc.faults), p.BatchFaults())]
		det := make([]uint64, MaxLaneWords)
		if err := p.ReplayInto(a, batch, det); err != nil { // warm-up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := p.ReplayInto(a, batch, det); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state wide replay allocates %.1f objects per batch, want 0", tc.name, allocs)
		}
	}
}

// TestCompileRejectsUnsupportedLaneWidths: width validation must refuse
// every width but one and eight words up front.
func TestCompileRejectsUnsupportedLaneWidths(t *testing.T) {
	tr := recordMarch(t, march.MATSPlus(), 8)
	for _, w := range []int{-1, 0, 2, 3, 4, 5, 7, 9, 16} {
		if _, err := Compile(tr, w); err == nil {
			t.Errorf("Compile accepted laneWords=%d", w)
		}
		if ValidLaneWords(w) {
			t.Errorf("ValidLaneWords(%d) = true", w)
		}
	}
	for _, w := range []int{1, 8} {
		if !ValidLaneWords(w) {
			t.Errorf("ValidLaneWords(%d) = false", w)
		}
	}
}

// TestReplayRejectsWideProgram: a single-mask replay only fits one lane
// word; a wide program must refuse it, or any detection buffer of the
// wrong word count, rather than return a truncated mask.
func TestReplayRejectsWideProgram(t *testing.T) {
	tr := recordMarch(t, march.MATSPlus(), 8)
	p, err := Compile(tr, MaxLaneWords)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(p)
	faults := fault.SingleCellUniverse(8, 1)
	if _, err := replay64(p, a, faults); err == nil {
		t.Fatal("a single-mask replay accepted an 8-word program")
	}
	det := make([]uint64, 3)
	if err := p.ReplayInto(a, faults, det); err == nil {
		t.Fatal("ReplayInto accepted a det buffer of the wrong word count")
	}
}
