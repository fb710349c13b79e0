package sim

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bist"
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

// recordBIST captures the compressed BIST controller running PRT-3 on
// an n×m WOM (an n-cell BOM when m is 1): every recurrence read is
// folded into the MISR observer, so the runs of reads its affine
// writes consume are folded reads.
func recordBIST(t *testing.T, n, m int) *Trace {
	t.Helper()
	s := prt.StandardScheme3(prt.PaperWOMConfig().Gen)
	var mem ram.Memory = ram.NewWOM(n, m)
	if m == 1 {
		s = prt.StandardScheme3(prt.PaperBOMConfig().Gen)
		mem = ram.NewBOM(n)
	}
	tr, detected, ops := Record(mem, func(mem ram.Memory) (bool, uint64) {
		pass, cycles, err := bist.RunAllCompressed(s, mem, 0)
		if err != nil {
			t.Fatal(err)
		}
		return !pass, cycles
	})
	if detected || ops == 0 || tr.MaxBack == 0 || tr.Observes == 0 {
		t.Fatalf("bad clean run: detected=%v ops=%d maxBack=%d observes=%d", detected, ops, tr.MaxBack, tr.Observes)
	}
	return tr
}

// recordCheckedRecurrence captures a π-walk whose recurrence reads are
// all checked, as E16's exact mode records them: seed the first k cells,
// write each further cell as the affine map of the k cells before it,
// each read back and checked, then read every cell back checked.  The
// walk runs over the paper's BOM generator on an n-cell BOM when m is
// 1, over its GF(2^4) generator on an n×4 WOM otherwise.
func recordCheckedRecurrence(t *testing.T, n, m int) *Trace {
	t.Helper()
	cfg := prt.PaperWOMConfig()
	var mem ram.Memory = ram.NewWOM(n, m)
	if m == 1 {
		cfg = prt.PaperBOMConfig()
		mem = ram.NewBOM(n)
	}
	f, taps, k := cfg.Gen.Field, cfg.Gen.Taps(), cfg.Gen.K()
	back, rows := make([]int, k), make([][]uint32, k)
	for j := 1; j <= k; j++ {
		back[j-1] = k - j + 1
		rows[j-1] = f.ConstMulMatrix(taps[j-1]).Rows
	}
	want := prt.ExpectedSequence(cfg, n)
	tr, detected, ops := Record(mem, func(mem ram.Memory) (bool, uint64) {
		var ops uint64
		bad := false
		check := func(a int) gf.Elem {
			v := gf.Elem(mem.Read(a))
			ram.AnnotateChecked(mem)
			ops++
			bad = bad || v != want[a]
			return v
		}
		for i := 0; i < k; i++ {
			mem.Write(i, ram.Word(cfg.Seed[i]))
			ops++
		}
		for i := k; i < n; i++ {
			next := cfg.Offset
			for j := 1; j <= k; j++ {
				next = f.Add(next, f.Mul(taps[j-1], check(i-j)))
			}
			mem.Write(i, ram.Word(next))
			ram.AnnotateLinear(mem, back, rows, ram.Word(cfg.Offset))
			ops++
		}
		for a := 0; a < n; a++ {
			check(a)
		}
		return bad, ops
	})
	if detected || ops == 0 || tr.MaxBack != k {
		t.Fatalf("bad clean run: detected=%v ops=%d maxBack=%d", detected, ops, tr.MaxBack)
	}
	return tr
}

// withRetention appends to faults the retention faults of every bit of
// an n×m memory at delays of 1 to 12 ops.  Those delays end inside the
// runs of reads a recurrence write consumes, so a run read ticked at
// the wrong clock decays a different set of machines.
func withRetention(faults []fault.Fault, n, m int) []fault.Fault {
	out := append([]fault.Fault(nil), faults...)
	for d := uint64(1); d <= 12; d++ {
		out = append(out, fault.RetentionUniverse(n, m, d)...)
	}
	return out
}

// interpreterClock is the clock the interpreter's Array reaches over the
// first n ops of tr: one tick per read and per write.
func interpreterClock(tr *Trace, n int) uint64 {
	arr := NewArray(tr)
	for _, op := range tr.Ops[:n] {
		switch op.Kind {
		case ram.OpRead:
			arr.read(op.Addr)
		case ram.OpWrite:
			arr.write(op.Addr, arr.val)
		}
	}
	return arr.clock
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

// traceTicks returns each compiled op's first clock tick in trace
// order: an affine head ticks after the run of reads it consumes, a
// fused op at its read.  A pass that stops at a read with clock c has
// executed exactly the ops whose tick is at most c.
func traceTicks(p *Program) []uint64 {
	ticks := make([]uint64, len(p.code))
	var clock uint64
	for i := 0; i < len(p.code); i++ {
		switch p.code[i] >> opShift {
		case opAffine:
			end := i + int(p.args[i].t0)
			for r := i + 1; r <= end; r++ {
				clock++
				ticks[r] = clock
			}
			clock++
			ticks[i] = clock
			i = end
		case opCheckWrite:
			clock += 2
			ticks[i] = clock - 1
		default:
			clock++
			ticks[i] = clock
		}
	}
	return ticks
}

// assertCompiledMatchesReplayBatch is the kernel-equivalence property:
// for every batch of size faults (at most 64) of the universe,
// Program.ReplayInto through a reused arena must return the exact
// detection mask of the existing per-batch interpreter, with the
// program compiled at 64 and at 512 lanes.  A dense pass of a program
// without observer compares that stops early must have executed the ops
// the trace order puts up to its stop (traceTicks); it returns how many
// such passes stopped inside a run of reads, with their write's head
// unexecuted, at the width where fewer did.
func assertCompiledMatchesReplayBatch(t *testing.T, tr *Trace, faults []fault.Fault, size int) (inRun int) {
	t.Helper()
	inRun = len(faults)
	for _, W := range []int{1, MaxLaneWords} {
		p, err := Compile(tr, W)
		if err != nil {
			t.Fatal(err)
		}
		a := NewArena(p)
		det := make([]uint64, W)
		ticks := traceTicks(p)
		stops := 0
		for lo := 0; lo < len(faults); lo += size {
			hi := min(lo+size, len(faults))
			want, err := ReplayBatch(tr, faults[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ReplayInto(a, faults[lo:hi], det); err != nil {
				t.Fatal(err)
			}
			if det[0] != want {
				t.Fatalf("%d lanes, batch [%d:%d): compiled mask %064b\n              interpreter %064b", W*BatchSize, lo, hi, det[0], want)
			}
			if a.sparse || len(p.observes) > 0 || a.executed == uint64(p.Ops()) {
				continue
			}
			var done uint64
			headAhead := false // an op before the stop in code order ticks after it: its run's head
			for _, tk := range ticks {
				if tk == a.clock {
					break
				}
				headAhead = headAhead || tk > a.clock
			}
			for _, tk := range ticks {
				if tk <= a.clock {
					done++
				}
			}
			if a.executed != done {
				t.Fatalf("%d lanes, batch [%d:%d) stopped at clock %d: executed %d ops, the trace order puts %d up to it", W*BatchSize, lo, hi, a.clock, a.executed, done)
			}
			if headAhead {
				stops++
			}
		}
		inRun = min(inRun, stops)
	}
	return inRun
}

func TestCompiledKernelWidth1MatchesInterpreter(t *testing.T) {
	const n = 24
	tr := recordMarch(t, march.MarchB(), n)
	u := fault.StandardUniverse(n, 1, 8, 3)
	assertCompiledMatchesReplayBatch(t, tr, u.Faults, BatchSize)
}

func TestCompiledKernelGenericMatchesInterpreter(t *testing.T) {
	const n, m = 24, 4
	tr := recordWOM(t, march.MarchCMinus(), n, m)
	u := fault.StandardUniverse(n, m, 8, 5)
	assertCompiledMatchesReplayBatch(t, tr, u.Faults, BatchSize)
}

// TestCompiledKernelAffineMatchesInterpreter covers the fused runs of
// all four kernels — width-1 on a BOM and generic on a 4-bit WOM, each
// at 64 and 512 lanes — with every read kind inside a run: PRT-3's
// plain sources and checked stale capture, the BIST controller's
// folded sources and a recurrence whose sources are all checked.
// Retention faults decaying inside the runs hold each run read to its
// clock tick, and single-fault batches stop passes inside runs.
func TestCompiledKernelAffineMatchesInterpreter(t *testing.T) {
	for _, c := range []struct{ n, m int }{{24, 1}, {17, 4}} {
		for _, tc := range []struct {
			name string
			tr   *Trace
		}{
			{"prt3", recordPRT(t, c.n, c.m)},
			{"bist", recordBIST(t, c.n, c.m)},
			{"checked", recordCheckedRecurrence(t, c.n, c.m)},
		} {
			t.Run(fmt.Sprintf("%s/%dx%d", tc.name, c.n, c.m), func(t *testing.T) {
				u := fault.StandardUniverse(c.n, c.m, 8, 7)
				assertCompiledMatchesReplayBatch(t, tc.tr, withRetention(u.Faults, c.n, c.m), BatchSize)
				// Alone, a fault a checked run read detects stops the pass
				// inside the run.
				inRun := assertCompiledMatchesReplayBatch(t, tc.tr, u.Faults, 1)
				if tc.name != "bist" && inRun == 0 {
					t.Error("no pass stopped inside a run, so the executed count there went unchecked")
				}
			})
		}
	}
}

// TestCompileRefusesSourcesOutsideTheRun: an affine write executes with
// the unbroken run of reads directly before it, so Compile refuses a
// source read that another op separates from the write, with an error
// distinct from the one for a read that never happened.  The same reads
// with nothing between them compile head first.
func TestCompileRefusesSourcesOutsideTheRun(t *testing.T) {
	build := func(mid Op, back ...int) *Trace {
		lin := &Linear{Back: back, Rows: make([][]uint32, len(back))}
		for j := range back {
			lin.Rows[j] = []uint32{1}
		}
		return &Trace{Size: 4, Width: 1, Init: make([]ram.Word, 4), Checked: 1, MaxBack: slices.Max(back),
			Observers: []int{1}, Ops: []Op{
				{Kind: ram.OpRead, Addr: 0},
				mid,
				{Kind: ram.OpRead, Addr: 2},
				{Kind: ram.OpWrite, Addr: 3, Lin: lin},
				{Kind: ram.OpRead, Addr: 3, Checked: true},
			}}
	}
	for _, mid := range []Op{{Kind: ram.OpWrite, Addr: 1}, {Kind: OpObserve, Addr: 0}} {
		_, err := Compile(build(mid, 2, 1), 1)
		if err == nil || !strings.Contains(err.Error(), "only the 1 ops before it are reads") {
			t.Errorf("a source separated from its write by op kind %d: Compile returned %v", mid.Kind, err)
		}
	}
	if _, err := Compile(build(Op{Kind: ram.OpRead, Addr: 1}, 4), 1); err == nil || !strings.Contains(err.Error(), "only 3 reads recorded") {
		t.Errorf("a source before the first read: Compile returned %v", err)
	}
	// Reads 1 and 2 are the sources, so the head sits between reads 0
	// and 1, and each source carries its own term.
	p, err := Compile(build(Op{Kind: ram.OpRead, Addr: 1}, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.code[1] >> opShift; got != opAffine || p.args[1].t0 != 2 || p.Ops() != 5 {
		t.Fatalf("code[1] opcode %d, run length %d, %d ops; want the head (%d), 2, 5", got, p.args[1].t0, p.Ops(), opAffine)
	}
	for r := 2; r <= 3; r++ {
		if a := p.args[r]; a.tn != 1 || p.terms[a.t0] != (affTerm{dst: 0, mask: 1}) {
			t.Errorf("run read %d: terms %v", r, p.terms[a.t0:a.t0+a.tn])
		}
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
		assertCompiledMatchesReplayBatch(t, tr, u.Faults, BatchSize)
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
	assertCompiledMatchesReplayBatch(t, tr, fault.SingleCellUniverse(n, 1), BatchSize)
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
// hook-installing fault model, for sparse batches that restore the
// cells their hooks reach, and for batches holding a dozen stuck-open
// faults.
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
		{"stuckOpen1", recordMarch(t, march.MarchCMinus(), 32), withStuckOpen(reachingFaults(32, 1, BatchSize, 5), 32)},
		{"stuckOpenN", recordPRT(t, 17, 4), withStuckOpen(reachingFaults(17, 4, BatchSize, 5), 17)},
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
