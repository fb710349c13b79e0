package coverage

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/sim"
)

// The session-equivalence property: for every universe family and all
// three engines, a session produces Results byte-identical to the
// per-fault oracle reference (oracleSession) — across chunk sizes
// {1, 7, 4096}, one worker and four, with dropping on and off, and for
// both plan shapes (a materialized Universe and a Stream over the same
// faults).  Stats
// is diagnostic metadata outside the contract (Reps and Workers
// legitimately vary with the chunking) and is zeroed before comparing.

type streamFamily struct {
	name    string
	src     fault.Source
	mk      MemoryFactory
	runners []Runner
}

func streamFamilies() []streamFamily {
	gen := prt.PaperWOMConfig().Gen
	bgen := prt.PaperBOMConfig().Gen
	bgs := march.DataBackgrounds(4)
	wom := womFactory(16, 4)
	bom := bomFactory(16)
	womRunners := []Runner{
		MarchRunner(march.MATSPlus(), bgs),
		PRTRunner(prt.StandardScheme3(gen)),
	}
	bomRunners := []Runner{
		MarchRunner(march.MarchCMinus(), nil),
		PRTRunner(prt.StandardScheme3(bgen)),
	}
	pairs := append(fault.AdjacentPairs(16), fault.SamplePairs(16, 4, 8, 7)...)
	return []streamFamily{
		{"single-cell", fault.SingleCellSource(16, 4), wom, womRunners},
		{"stuck-open", fault.StuckOpenSource(16), wom, womRunners},
		{"retention", fault.RetentionSource(16, 4, 16), wom, womRunners},
		{"decoder", fault.DecoderSource(16), wom, womRunners},
		{"coupling", fault.CouplingSource(pairs), wom, womRunners},
		{"full-coupling", fault.FullCouplingSource(9), bom, bomRunners},
		{"intra-word", fault.IntraWordSource(16, 4), wom, womRunners},
		{"npsf", fault.NPSFSource(16, 4, 3), bom, bomRunners},
		{"anpsf", fault.ANPSFSource(16, 4, 5), bom, bomRunners},
	}
}

func assertSessionsEqual(t *testing.T, label string, want, got *Session) {
	t.Helper()
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		w.Stats, g.Stats = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s runner %d: Result differs\nwant: %+v\ngot:  %+v", label, i, w, g)
		}
	}
	if !reflect.DeepEqual(want.Cumulative, got.Cumulative) {
		t.Errorf("%s: cumulative differs\nwant: %+v\ngot:  %+v", label, want.Cumulative, got.Cumulative)
	}
	if !reflect.DeepEqual(want.Vectors, got.Vectors) {
		t.Errorf("%s: verdict vectors differ", label)
	}
	if len(want.Stages) != len(got.Stages) {
		t.Fatalf("%s: %d stages, want %d", label, len(got.Stages), len(want.Stages))
	}
	for i := range want.Stages {
		w, g := want.Stages[i], got.Stages[i]
		if w.Runner != g.Runner || w.RunnerIndex != g.RunnerIndex || w.Entered != g.Entered ||
			w.Detected != g.Detected || w.Survivors != g.Survivors {
			t.Errorf("%s stage %d: %s %d/%d→%d, want %s %d/%d→%d", label, i,
				g.Runner, g.Detected, g.Entered, g.Survivors,
				w.Runner, w.Detected, w.Entered, w.Survivors)
		}
	}
}

// oracleSession is the tests' independent reference for a session run
// in the given runner order with KeepVectors: every verdict comes from
// one full algorithm run on a freshly injected memory, folded with the
// documented dropping semantics — no chunking, no workers, no shared
// code with the executor under test.
func oracleSession(name string, runners []Runner, faults []fault.Fault, mk MemoryFactory, drop bool) *Session {
	s := &Session{Results: make([]Result, len(runners)), Vectors: make([][]Verdict, len(runners))}
	cum := Result{Runner: "session", Universe: name, Total: len(faults), ByClass: make(map[fault.Class]ClassStat)}
	for _, f := range faults {
		cs := cum.ByClass[f.Class()]
		cs.Total++
		cum.ByClass[f.Class()] = cs
	}
	caught := make([]bool, len(faults))
	for ri, r := range runners {
		falsePositive, ops := r.Run(mk())
		res := Result{Runner: r.Name(), Universe: name, ByClass: make(map[fault.Class]ClassStat),
			OpsCleanRun: ops, FalsePositive: falsePositive}
		vec := make([]Verdict, len(faults))
		for i, f := range faults {
			if drop && caught[i] {
				vec[i] = VerdictDropped
				continue
			}
			cs := res.ByClass[f.Class()]
			cs.Total++
			res.Total++
			if d, _ := r.Run(f.Inject(mk())); d {
				vec[i] = VerdictDetected
				cs.Detected++
				res.Detected++
				if !caught[i] {
					caught[i] = true
					cum.Detected++
					cc := cum.ByClass[f.Class()]
					cc.Detected++
					cum.ByClass[f.Class()] = cc
				}
			}
			res.ByClass[f.Class()] = cs
		}
		cum.OpsCleanRun += ops
		cum.FalsePositive = cum.FalsePositive || falsePositive
		s.Results[ri], s.Vectors[ri] = res, vec
		s.Stages = append(s.Stages, StageStat{Runner: r.Name(), RunnerIndex: ri,
			Entered: res.Total, Detected: res.Detected, Survivors: len(faults) - cum.Detected})
	}
	s.Cumulative = cum
	return s
}

func TestStreamingMatchesMaterialized(t *testing.T) {
	t.Parallel()
	engines := []Engine{EngineOracle, EngineBitParallel, EngineCompiled}
	chunks := []int{1, 7, 4096}
	families := streamFamilies()
	if testing.Short() {
		engines = engines[1:] // drop the slow chunk-1 oracle under -race
		chunks = []int{7}
		families = families[:4]
	}
	for _, fam := range families {
		u := fault.Universe{Name: fam.name, Faults: fault.Collect(fam.src)}
		for _, drop := range []bool{false, true} {
			want := oracleSession(fam.name, fam.runners, u.Faults, fam.mk, drop)
			for _, engine := range engines {
				for _, chunk := range chunks {
					for _, workers := range []int{1, 4} {
						for _, stream := range []bool{false, true} {
							p := &Plan{
								Runners: fam.runners, Chunk: chunk, Memory: fam.mk,
								Workers: workers, Engine: engine, Drop: drop, KeepVectors: true,
							}
							shape := "universe"
							if stream {
								shape = "stream"
								p.Stream = &fault.Stream{Name: fam.name, Source: fam.src}
							} else {
								p.Universe = u
							}
							label := fmt.Sprintf("%s [%s %s drop=%v chunk=%d workers=%d]",
								fam.name, shape, engine, drop, chunk, workers)
							assertSessionsEqual(t, label, want, p.Run())
						}
					}
				}
			}
		}
	}
}

// Streaming sessions must also respect execution ordering and the
// program cache, exactly like Universe plans over the same faults.
func TestStreamingCheapestFirstAndCache(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	u := fault.Universe{Name: fam.name, Faults: fault.Collect(fam.src)}
	cache := sim.NewProgramCache()
	mkPlan := func(stream bool) *Plan {
		p := &Plan{
			Runners: fam.runners, Memory: fam.mk, Workers: 4,
			Engine: EngineCompiled, Drop: true, Order: OrderCheapestFirst,
			KeepVectors: true, Cache: cache,
		}
		if stream {
			p.Stream = &fault.Stream{Name: fam.name, Source: fam.src}
			p.Chunk = 64
		} else {
			p.Universe = u
		}
		return p
	}
	want := mkPlan(false).Run()
	got := mkPlan(true).Run()
	assertSessionsEqual(t, "cheapest-first", want, got)
	// Second streaming run: every stage must hit the program cache.
	again := mkPlan(true).Run()
	for i, st := range again.Stages {
		if !st.CacheHit {
			t.Errorf("stage %d (%s): expected a program cache hit on the second run", i, st.Runner)
		}
	}
	assertSessionsEqual(t, "cached rerun", want, again)
}

// guardSource interposes on a Source to sample the live heap every few
// Fills.  Workers fill concurrently, so the count and the callback are
// behind a lock.
type guardSource struct {
	fault.Source
	mu    sync.Mutex
	fills int
	every int
	cb    func()
}

func (g *guardSource) Fill(dst []fault.Fault, lo int) {
	g.mu.Lock()
	if g.fills++; g.fills%g.every == 0 {
		g.cb()
	}
	g.mu.Unlock()
	g.Source.Fill(dst, lo)
}

// TestStreamingMemoryBoundedByChunk is the memory guard, in two
// shapes.  An exhaustive coupling universe of ~783K instances streams
// through the compiled engine with a 2K chunk while the live heap
// (sampled after forced GCs mid-run) must stay within a small constant
// budget — materializing the same universe costs ~50 MB of fault
// headers alone, so an O(universe) regression trips the assertion with
// a wide margin.  And a small universe under a huge chunk cap must
// allocate in proportion to the universe, not the cap: the chunk is an
// upper bound, and each stage sizes its buffers from its exact count.
func TestStreamingMemoryBoundedByChunk(t *testing.T) {
	t.Run("small-source-huge-chunk", func(t *testing.T) {
		const n = 32
		src := fault.FullCouplingSource(n)
		count, _ := src.Count()
		p := Plan{
			Runners: []Runner{MarchRunner(march.MATSPlus(), nil)},
			Stream:  &fault.Stream{Name: "cf-small", Source: src},
			Chunk:   1 << 24,
			Memory:  bomFactory(n),
			Workers: 2,
			Engine:  EngineCompiled,
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := p.Run().Results[0]
		runtime.ReadMemStats(&m1)
		if res.Total != count {
			t.Fatalf("streamed %d faults, want %d", res.Total, count)
		}
		// Chunk buffers cost ~26 bytes per slot and worker: 1<<24 slots
		// would be ~436 MB each.  The whole run — trace, program,
		// arenas and chunk buffers sized from the universe — allocates
		// about 2 MB.
		const budget = 8 << 20
		if got := m1.TotalAlloc - m0.TotalAlloc; got > budget {
			t.Errorf("a %d-fault campaign allocated %d bytes under a 1<<24 chunk cap (budget %d): buffers follow the cap, not the universe",
				count, got, budget)
		}
	})
	if testing.Short() {
		t.Skip("heap-sampling guard: skipped under -short/-race")
	}
	const n = 256
	const chunkSize = 2048
	src := fault.FullCouplingSource(n)
	count, _ := src.Count()
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var peak uint64
	g := &guardSource{Source: src, every: 48, cb: func() {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peak {
			peak = m.HeapAlloc
		}
	}}
	p := Plan{
		Runners: []Runner{MarchRunner(march.MATSPlus(), nil)},
		Stream:  &fault.Stream{Name: "cf-exhaustive", Source: g},
		Chunk:   chunkSize,
		Memory:  bomFactory(n),
		Workers: 4,
		Engine:  EngineCompiled,
	}
	res := p.Run().Results[0]
	if res.Total != count {
		t.Fatalf("streamed %d faults, want %d", res.Total, count)
	}
	if g.fills < count/chunkSize {
		t.Fatalf("only %d Fills for %d faults at chunk %d", g.fills, count, chunkSize)
	}
	const budget = 16 << 20 // chunk buffers + arenas + bitmaps + GC slack
	if peak > m0.HeapAlloc+budget {
		t.Errorf("peak live heap grew %d bytes over baseline (budget %d): fault storage is not O(chunk)",
			peak-m0.HeapAlloc, budget)
	}
}

// TestStageShape pins the stage sizing rule: about four chunks per
// worker, rounded up to whole batches and capped by the configured
// chunk, with no more workers than chunks.  left is what runStream
// passes: the stage's partition range minus the resumed prefix.
func TestStageShape(t *testing.T) {
	t.Parallel()
	const workers = 4
	batches := []int{1, sim.BatchSize, 8 * sim.BatchSize} // oracle, bitpar, compiled at 512 lanes
	type shape struct{ chunk, workers int }
	for _, tc := range []struct {
		name        string
		universe    int
		part, parts int // 1-based partition; parts 0 = unpartitioned
		resumed     int // indices of the stage's range already done
		maxChunk    int
		want        [3]shape // per batch width above
	}{
		{name: "empty", universe: 0, maxChunk: 8192,
			want: [3]shape{{1, 1}, {64, 1}, {512, 1}}},
		{name: "small", universe: 64, maxChunk: 8192,
			want: [3]shape{{4, 4}, {64, 1}, {512, 1}}},
		{name: "large", universe: 1_000_000, maxChunk: 8192,
			want: [3]shape{{8192, 4}, {8192, 4}, {8192, 4}}},
		{name: "resumed", universe: 10_000, resumed: 9000, maxChunk: 8192,
			want: [3]shape{{63, 4}, {64, 4}, {512, 2}}},
		{name: "partitioned", universe: 10_000, part: 3, parts: 4, maxChunk: 8192,
			want: [3]shape{{157, 4}, {192, 4}, {512, 4}}},
		{name: "partitioned+resumed", universe: 10_000, part: 4, parts: 4, resumed: 2000, maxChunk: 8192,
			want: [3]shape{{32, 4}, {64, 4}, {512, 1}}},
		{name: "cap-below-batch", universe: 1000, maxChunk: 7,
			want: [3]shape{{7, 4}, {64, 4}, {512, 2}}},
	} {
		lo, hi := 0, tc.universe
		if tc.parts > 0 {
			lo, hi = fault.PartitionRange(tc.universe, tc.part-1, tc.parts)
		}
		left := hi - lo - tc.resumed
		for i, b := range batches {
			c, w := stageShape(left, workers, b, tc.maxChunk)
			if got := (shape{c, w}); got != tc.want[i] {
				t.Errorf("%s (left %d) batch %d: chunk %d workers %d, want %+v", tc.name, left, b, c, w, tc.want[i])
			}
		}
	}
}

// TestConcurrentSessionsShareOneUniverse: the drivers only read a
// Source's size and fill index ranges, so sessions may share one.  Two
// sessions run MATS+ at once over one 32-cell exhaustive coupling
// universe, 20 times, and each must equal the sequential run.
func TestConcurrentSessionsShareOneUniverse(t *testing.T) {
	t.Parallel()
	const n = 32
	stream := &fault.Stream{Name: "cf-shared", Source: fault.FullCouplingSource(n)}
	plan := func() *Plan {
		return &Plan{
			Runners: []Runner{MarchRunner(march.MATSPlus(), nil)},
			Stream:  stream, Memory: bomFactory(n), Workers: 2, Chunk: 64,
		}
	}
	want := plan().Run()
	for round := range 20 {
		got := make([]*Session, 2)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = plan().Run()
			}()
		}
		wg.Wait()
		for i, s := range got {
			assertSessionsEqual(t, fmt.Sprintf("round %d session %d", round, i), want, s)
		}
	}
}
