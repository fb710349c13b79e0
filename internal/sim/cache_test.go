package sim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/ram"
)

// compilePrograms builds the regression set of compiled programs with
// deliberately different shapes: width-1 vs width-4, sparse (literal)
// or not, with and without read-history rings (affine recurrence
// writes), with and without fold-accumulator state, and different
// sizes.
func shapePrograms(t *testing.T) []*Program {
	t.Helper()
	traces := []*Trace{
		recordMarch(t, march.MarchCMinus(), 24), // width 1, sparse, no history, no observers
		recordWOM(t, march.MarchB(), 16, 4),     // width 4, sparse
		recordPRT(t, 17, 4),                     // width 4, history ring (affine writes)
		recordObserver(t, 24, 1),                // width 1, 1-bit fold accumulator
		recordObserver(t, 12, 4),                // width 4, 4-bit fold accumulator
		recordMarch(t, march.MATSPlus(), 40),    // width 1, sparse, larger
	}
	progs := make([]*Program, len(traces))
	for i, tr := range traces {
		p, err := Compile(tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	return progs
}

// TestArenaRetargetAcrossProgramShapes is the cross-program reuse
// regression: one arena retargeted across compiled programs of
// different shapes (widths, fold-accumulator counts, history lengths,
// sizes, sparse or not) must reproduce the detection mask of a fresh
// arena for every program — in both directions of every program pair,
// so neither growing nor shrinking any buffer leaks state.  Each batch
// holds faults whose hooks reach unhooked cells, so the sparse
// programs' batches restore cells, and after every batch the arena's
// reset must leave no live bit, dirty cell or stale lane behind.
func TestArenaRetargetAcrossProgramShapes(t *testing.T) {
	progs := shapePrograms(t)
	batchFor := func(p *Program) []fault.Fault {
		u := fault.StandardUniverse(p.Size(), p.Width(), 4, 21).Faults[:BatchSize/2]
		return append(u, reachingFaults(p.Size(), p.Width(), BatchSize/2, 21)...)
	}
	replay64 := func(p *Program, a *Arena, faults []fault.Fault) (uint64, error) {
		m, err := replay64(p, a, faults)
		assertPristineAfterReset(t, a)
		return m, err
	}
	want := make([]uint64, len(progs))
	for i, p := range progs {
		m, err := replay64(p, NewArena(p), batchFor(p))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	for i := range progs {
		for j := range progs {
			if i == j {
				continue
			}
			shared := NewArena(progs[i])
			if _, err := replay64(progs[i], shared, batchFor(progs[i])); err != nil {
				t.Fatal(err)
			}
			shared.Retarget(progs[j])
			got, err := replay64(progs[j], shared, batchFor(progs[j]))
			if err != nil {
				t.Fatal(err)
			}
			if got != want[j] {
				t.Errorf("programs %d→%d: retargeted arena mask %064b, fresh %064b", i, j, got, want[j])
			}
			// And back again: shrink/regrow must be just as clean.
			shared.Retarget(progs[i])
			back, err := replay64(progs[i], shared, batchFor(progs[i]))
			if err != nil {
				t.Fatal(err)
			}
			if back != want[i] {
				t.Errorf("programs %d→%d→%d: round-trip mask %064b, fresh %064b", i, j, i, back, want[i])
			}
		}
	}
}

// TestReplayRejectsForeignArena: an arena must be explicitly
// retargeted before replaying a different program.
func TestReplayRejectsForeignArena(t *testing.T) {
	progs := shapePrograms(t)
	a := NewArena(progs[0])
	if _, err := replay64(progs[1], a, []fault.Fault{fault.SAF{Cell: 0, Value: 1}}); err == nil {
		t.Fatal("replay through a foreign arena must error")
	}
}

// TestArenaPoolRetargets: pooled arenas come back bound to the
// requested program, whatever they last ran.
func TestArenaPoolRetargets(t *testing.T) {
	progs := shapePrograms(t)
	var pool ArenaPool
	a := pool.Get(progs[0])
	pool.Put(a)
	b := pool.Get(progs[2])
	if b != a {
		t.Fatal("pool did not recycle the arena")
	}
	if _, err := replay64(progs[2], b, []fault.Fault{fault.SAF{Cell: 0, Value: 1}}); err != nil {
		t.Fatalf("pooled arena not retargeted: %v", err)
	}
	// A nil pool stays functional and simply builds fresh arenas.
	var np *ArenaPool
	c := np.Get(progs[1])
	if _, err := replay64(progs[1], c, []fault.Fault{fault.SAF{Cell: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	np.Put(c)
}

// TestProgramCacheRoundTrip covers hit/miss accounting and the
// init-hash discrimination of the key.
func TestProgramCacheRoundTrip(t *testing.T) {
	tr := recordMarch(t, march.MarchCMinus(), 16)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewProgramCache()
	k := ProgramKey{Runner: "march:{...}", Size: 16, Width: 1, InitHash: InitHash(ram.NewBOM(16))}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, &CachedProgram{Prog: p, CleanOps: 160})
	e, ok := c.Get(k)
	if !ok || e.Prog != p || e.CleanOps != 160 {
		t.Fatalf("cache round-trip lost the entry: %+v ok=%v", e, ok)
	}
	hits, misses, entries := c.Stats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", hits, misses, entries)
	}
	// A different initial image is a different key.
	dirty := ram.NewBOM(16)
	dirty.Write(3, 1)
	k2 := k
	k2.InitHash = InitHash(dirty)
	if k2 == k {
		t.Fatal("init hash failed to distinguish memory images")
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("differing init image must miss")
	}
	// A nil cache is inert.
	var nc *ProgramCache
	if _, ok := nc.Get(k); ok {
		t.Fatal("nil cache hit")
	}
	nc.Put(k, e)
}

// TestProgramCacheBounded: the cache evicts rather than grow without
// bound.
func TestProgramCacheBounded(t *testing.T) {
	tr := recordMarch(t, march.MarchCMinus(), 8)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewProgramCache()
	for i := 0; i < 4*cacheCap; i++ {
		c.Put(ProgramKey{Runner: "r", Size: i}, &CachedProgram{Prog: p})
	}
	if _, _, entries := c.Stats(); entries > cacheCap {
		t.Fatalf("cache grew to %d entries (cap %d)", entries, cacheCap)
	}
}

// assertPristineAfterReset resets a and requires the program's initial
// state: initial lanes, no flag byte set (hook or live), no dirty cell.
func assertPristineAfterReset(t *testing.T, a *Arena) {
	t.Helper()
	a.reset()
	for c, f := range a.flags {
		if f != 0 {
			t.Fatalf("cell %d keeps flags %03b after reset", c, f)
		}
	}
	if len(a.dirty) != 0 {
		t.Fatalf("%d dirty cells survive reset", len(a.dirty))
	}
	for i := range a.lanes {
		if a.lanes[i] != a.p.initLanes[i] {
			t.Fatalf("lane word %d = %#x after reset, initial %#x", i, a.lanes[i], a.p.initLanes[i])
		}
	}
}
