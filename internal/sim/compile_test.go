package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
)

// recordWOM captures a width-m March trace (data backgrounds exercise
// every bit) on a fresh WOM.
func recordWOM(t *testing.T, test march.Test, n, m int) *Trace {
	t.Helper()
	tr, detected, ops := Record(ram.NewWOM(n, m), func(mem ram.Memory) (bool, uint64) {
		r := march.RunBackgrounds(test, mem, march.DataBackgrounds(m))
		return r.Detected, r.Ops
	})
	if detected || ops == 0 {
		t.Fatalf("bad clean run: detected=%v ops=%d", detected, ops)
	}
	return tr
}

// recordPRT captures a pseudo-ring trace, whose recurrence writes
// exercise the affine instruction path: PRT-3 over the paper's
// bit-oriented generator on an n-cell BOM when m is 1, over its
// GF(2^4) generator on an n×m WOM otherwise.
func recordPRT(t *testing.T, n, m int) *Trace {
	t.Helper()
	s := prt.StandardScheme3(prt.PaperWOMConfig().Gen)
	var mem ram.Memory = ram.NewWOM(n, m)
	if m == 1 {
		s = prt.StandardScheme3(prt.PaperBOMConfig().Gen)
		mem = ram.NewBOM(n)
	}
	tr, detected, ops := Record(mem, func(mem ram.Memory) (bool, uint64) {
		r, err := s.Run(mem)
		if err != nil {
			t.Fatal(err)
		}
		return r.Detected, r.Ops
	})
	if detected || ops == 0 {
		t.Fatalf("bad clean run: detected=%v ops=%d", detected, ops)
	}
	if tr.MaxBack == 0 {
		t.Fatal("PRT trace has no affine writes — annotation lost?")
	}
	return tr
}

// recordObserver captures a signature-observer trace on a width-m WOM:
// literal TDB writes (no affine recurrences), every read-back folded
// into a GF(2^m) MISR observer, one compare point, no checked reads —
// the minimal signature-BIST shape.  Being non-affine, it is also the
// shape whose detection depends entirely on the fold/observe path (and
// exercises the folded-bit gating of trace-conditioned collapsing).
func recordObserver(t *testing.T, n, m int) *Trace {
	t.Helper()
	f := gf.NewField(m)
	alpha := f.Generator()
	step := f.ConstMulMatrix(alpha).Rows
	tap := gf.IdentityMatrix(m).Rows
	tr, detected, ops := Record(ram.NewWOM(n, m), func(mem ram.Memory) (bool, uint64) {
		var ops uint64
		for a := 0; a < n; a++ {
			mem.Write(a, ram.Word(gf.Elem(a)&f.Mask()))
			ops++
		}
		var sig, want gf.Elem
		for a := 0; a < n; a++ {
			v := gf.Elem(mem.Read(a))
			ram.AnnotateFold(mem, 0, step, tap)
			ops++
			sig = f.Add(f.Mul(alpha, sig), v)
			want = f.Add(f.Mul(alpha, want), gf.Elem(a)&f.Mask())
		}
		ram.AnnotateObserved(mem, 0)
		return sig != want, ops
	})
	if detected || ops == 0 {
		t.Fatalf("bad clean run: detected=%v ops=%d", detected, ops)
	}
	if tr.Checked != 0 || tr.Observes != 1 || len(tr.Observers) != 1 || tr.Observers[0] != m {
		t.Fatalf("observer trace mis-annotated: checked=%d observes=%d observers=%v",
			tr.Checked, tr.Observes, tr.Observers)
	}
	if !tr.Replayable() {
		t.Fatal("observer-only trace must be replayable")
	}
	return tr
}

// replay64 replays one batch of at most 64 faults against a 64-machine
// program and returns its detection mask.
func replay64(p *Program, a *Arena, faults []fault.Fault) (uint64, error) {
	var det [1]uint64
	err := p.ReplayInto(a, faults, det[:])
	return det[0], err
}

// assertCompiledMatchesReplayBatch is the kernel-equivalence property:
// for every 64-fault batch of the universe, Program.ReplayInto through a
// reused arena must return the exact detection mask of the existing
// per-batch interpreter.
func assertCompiledMatchesReplayBatch(t *testing.T, tr *Trace, faults []fault.Fault) {
	t.Helper()
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(p)
	for lo := 0; lo < len(faults); lo += BatchSize {
		hi := lo + BatchSize
		if hi > len(faults) {
			hi = len(faults)
		}
		want, err := ReplayBatch(tr, faults[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		got, err := replay64(p, a, faults[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch [%d:%d): compiled mask %064b\n              interpreter %064b", lo, hi, got, want)
		}
	}
}

func TestCompiledKernelWidth1MatchesInterpreter(t *testing.T) {
	const n = 24
	tr := recordMarch(t, march.MarchB(), n)
	u := fault.StandardUniverse(n, 1, 8, 3)
	assertCompiledMatchesReplayBatch(t, tr, u.Faults)
}

func TestCompiledKernelGenericMatchesInterpreter(t *testing.T) {
	const n, m = 24, 4
	tr := recordWOM(t, march.MarchCMinus(), n, m)
	u := fault.StandardUniverse(n, m, 8, 5)
	assertCompiledMatchesReplayBatch(t, tr, u.Faults)
}

// TestCompiledKernelAffineMatchesInterpreter covers the affine write
// path of the width-1 kernel (a PRT-3 trace on a BOM) and of the
// generic kernel (on a 4-bit WOM).
func TestCompiledKernelAffineMatchesInterpreter(t *testing.T) {
	for _, c := range []struct{ n, m int }{{24, 1}, {17, 4}} {
		tr := recordPRT(t, c.n, c.m)
		u := fault.StandardUniverse(c.n, c.m, 8, 7)
		assertCompiledMatchesReplayBatch(t, tr, u.Faults)
	}
}

// TestCompiledKernelObserverMatchesInterpreter: both kernels must fold
// the per-lane accumulator differences exactly as the interpreter does,
// for the width-1 and the generic kernel.
func TestCompiledKernelObserverMatchesInterpreter(t *testing.T) {
	for _, m := range []int{1, 4} {
		const n = 24
		tr := recordObserver(t, n, m)
		u := fault.StandardUniverse(n, m, 8, 9)
		assertCompiledMatchesReplayBatch(t, tr, u.Faults)
	}
}

// TestCompileTrimsSuffix: ops after the last checked read cannot affect
// detection, so the compiler drops them — and replay of the trimmed
// program must still match the interpreter on the untrimmed trace.
func TestCompileTrimsSuffix(t *testing.T) {
	const n = 16
	tr := recordMarch(t, march.MATSPlus(), n)
	trailing := 0 // ops the recorded trace already has past its last check
	for i := len(tr.Ops) - 1; i >= 0; i-- {
		if tr.Ops[i].Kind == ram.OpRead && tr.Ops[i].Checked {
			break
		}
		trailing++
	}
	// Append a write-and-unchecked-read tail, as a non-annotating
	// executor epilogue would leave.
	tail := []Op{
		{Kind: ram.OpWrite, Addr: 0, Data: 1},
		{Kind: ram.OpRead, Addr: 0, Data: 1},
		{Kind: ram.OpWrite, Addr: n - 1, Data: 0},
	}
	tr.Ops = append(tr.Ops, tail...)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := trailing + len(tail); p.TrimmedOps() != want {
		t.Fatalf("TrimmedOps = %d, want %d", p.TrimmedOps(), want)
	}
	// Each fused super-op swallowed two trace ops into one instruction.
	if p.Ops()+p.FusedOps() != len(tr.Ops)-trailing-len(tail) {
		t.Fatalf("Ops+FusedOps = %d+%d, want %d", p.Ops(), p.FusedOps(), len(tr.Ops)-trailing-len(tail))
	}
	assertCompiledMatchesReplayBatch(t, tr, fault.SingleCellUniverse(n, 1))
}

func TestCompileRejectsUnannotatedTrace(t *testing.T) {
	tr := &Trace{Size: 4, Width: 1, Init: make([]ram.Word, 4), Ops: []Op{
		{Kind: ram.OpWrite, Addr: 0, Data: 1},
		{Kind: ram.OpRead, Addr: 0, Data: 1},
	}}
	if _, err := Compile(tr, 1); err == nil {
		t.Fatal("expected an error for a trace with no checked reads")
	}
}

// TestReplaySteadyStateAllocatesNothing is the zero-allocation
// regression gate: once an arena has warmed (hook-table capacity grown,
// pool populated), replaying a batch must not allocate a single heap
// object, for both the width-1 and the generic kernel, across every
// hook-installing fault model, and for sparse batches that restore the
// cells their hooks reach.
func TestReplaySteadyStateAllocatesNothing(t *testing.T) {
	cases := []struct {
		name   string
		tr     *Trace
		faults []fault.Fault
	}{
		{"sparse1", recordMarch(t, march.MarchCMinus(), 64), reachingFaults(64, 1, BatchSize, 11)},
		{"sparseN", recordWOM(t, march.MarchCMinus(), 32, 4), reachingFaults(32, 4, BatchSize, 11)},
		{"width1", recordMarch(t, march.MarchCMinus(), 32),
			fault.StandardUniverse(32, 1, 8, 11).Faults[:BatchSize]},
		{"generic", recordWOM(t, march.MarchCMinus(), 32, 4),
			fault.StandardUniverse(32, 4, 8, 11).Faults[:BatchSize]},
		{"affine", recordPRT(t, 17, 4),
			fault.StandardUniverse(17, 4, 8, 11).Faults[:BatchSize]},
		{"observer1", recordObserver(t, 32, 1),
			fault.StandardUniverse(32, 1, 8, 11).Faults[:BatchSize]},
		{"observerN", recordObserver(t, 32, 4),
			fault.StandardUniverse(32, 4, 8, 11).Faults[:BatchSize]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(tc.tr, 1)
			if err != nil {
				t.Fatal(err)
			}
			a := NewArena(p)
			if _, err := replay64(p, a, tc.faults); err != nil { // warm-up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := replay64(p, a, tc.faults); err != nil {
					t.Fatal(err)
				}
			})
			if strings.HasPrefix(tc.name, "sparse") && (!a.sparse || a.executed >= uint64(p.Ops())) {
				t.Fatalf("%s: the batch did not run sparse (executed %d of %d ops)", tc.name, a.executed, p.Ops())
			}
			if allocs != 0 {
				t.Fatalf("steady-state replay allocates %.1f objects per batch, want 0", allocs)
			}
		})
	}
}

// TestArenaResetRestoresExactState: a batch that dirties cells and
// installs hooks must leave no residue observable by the next batch —
// replaying batch A, then B, then A again must reproduce A's mask.
func TestArenaResetRestoresExactState(t *testing.T) {
	const n = 16
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(p)
	u := fault.StandardUniverse(n, 1, 8, 13).Faults
	batchA, batchB := u[:BatchSize], u[BatchSize:2*BatchSize]
	first, err := replay64(p, a, batchA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay64(p, a, batchB); err != nil {
		t.Fatal(err)
	}
	again, err := replay64(p, a, batchA)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("arena reset leaks state: first %064b, again %064b", first, again)
	}
}

// TestShardsCompiledMatchesAcrossWorkerCounts: the compiled streaming
// driver returns the interpreter reference's verdicts at every worker
// count, with collapsing on, through one sink per worker.
func TestShardsCompiledMatchesAcrossWorkerCounts(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MATSPlus(), n) // imperfect coverage: mixed verdicts
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 8, 3).Faults
	ref := replayRef(t, tr, faults)
	ctx := context.Background()
	for _, workers := range []int{1, 3, 8} {
		cs := newCollectSink()
		ws, err := ShardsCompiledStream(ctx, p, fault.SliceSource(faults),
			StreamConfig{Chunk: 64, Workers: workers}, cs.sinkFor)
		if err != nil {
			t.Fatal(err)
		}
		cs.check(t, fmt.Sprintf("workers=%d", workers), ref, len(ws))
	}
}

// TestShardsPropagateBatchErrors: a fault that cannot be batch-injected
// sits in a later batch of a chunk; every driver must surface the error
// (and the stop flag keeps other workers from churning through the
// remainder).
func TestShardsPropagateBatchErrors(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MarchB(), n)
	faults := fault.SingleCellUniverse(n, 1) // 2 batches
	faults[BatchSize+3] = alienFault{}       // second batch fails injection
	ctx := context.Background()
	cfg := StreamConfig{Chunk: 2 * BatchSize, Workers: 2}
	if _, err := ShardsStream(ctx, tr, fault.SliceSource(faults), cfg, discard); err == nil {
		t.Fatal("ShardsStream must propagate a failing batch")
	}
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShardsCompiledStream(ctx, p, fault.SliceSource(faults), cfg, discard); err == nil {
		t.Fatal("ShardsCompiledStream must propagate a failing batch")
	}
}
