package coverage

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/sim"
)

// The session property (the PR's acceptance criterion): fault dropping
// is semantics-preserving.  For every replay-safe runner pair and
// universe in the regression set, on all three engines:
//
//  1. an undropped session's per-runner Results (and verdict vectors)
//     are byte-identical to independent CampaignEngine runs;
//  2. a dropped session never changes the verdict of any fault it
//     simulates — every non-dropped verdict equals the independent
//     run's verdict, and every dropped fault was detected by an
//     earlier-executed stage;
//  3. the session-level cumulative result is byte-identical with
//     dropping on or off, in both execution orders.

func sessionRunnerPairs() [][]Runner {
	gen := prt.PaperWOMConfig().Gen
	bgs := march.DataBackgrounds(4)
	return [][]Runner{
		{MarchRunner(march.MATSPlus(), bgs), MarchRunner(march.MarchCMinus(), bgs)},
		{PRTRunner(prt.StandardScheme3(gen).SignatureOnly()), PRTRunner(prt.StandardScheme3(gen))},
		{MarchRunner(march.MarchX(), bgs), PRTRunner(prt.StandardScheme4(gen))},
		{BISTRunner(prt.PaperWOMScheme3(), 0), PRTRunner(prt.StandardScheme3(gen))},
	}
}

func assertSessionSemantics(t *testing.T, runners []Runner, u fault.Universe, mk MemoryFactory, engine Engine) {
	t.Helper()
	plan := func(rs []Runner, drop bool, order Order) *Session {
		p := Plan{
			Runners: rs, Universe: u, Memory: mk, Workers: 4,
			Engine: engine, Drop: drop, Order: order, KeepVectors: true,
		}
		return p.Run()
	}
	indep := make([]Result, len(runners))
	indepVec := make([][]Verdict, len(runners))
	for i, r := range runners {
		s := plan([]Runner{r}, false, OrderAsGiven)
		indep[i] = s.Results[0]
		indep[i].Stats = nil
		indepVec[i] = s.Vectors[0]
	}

	// 1. Undropped session == independent campaigns, byte for byte.
	off := plan(runners, false, OrderAsGiven)
	for i, r := range runners {
		got := off.Results[i]
		got.Stats = nil
		if !reflect.DeepEqual(got, indep[i]) {
			t.Errorf("%s on %s [%s]: undropped session differs from independent run\nsession: %+v\nindep:   %+v",
				r.Name(), u.Name, engine, got, indep[i])
		}
		if !reflect.DeepEqual(off.Vectors[i], indepVec[i]) {
			t.Errorf("%s on %s [%s]: undropped verdict vector differs from independent run", r.Name(), u.Name, engine)
		}
	}

	// 2+3. Dropping preserves simulated verdicts and the cumulative
	// result, whatever the execution order.
	for _, order := range []Order{OrderAsGiven, OrderCheapestFirst} {
		on := plan(runners, true, order)
		if !reflect.DeepEqual(on.Cumulative, off.Cumulative) {
			t.Errorf("%s [%s, order %d]: cumulative result changed under dropping\ndrop: %+v\nfull: %+v",
				u.Name, engine, order, on.Cumulative, off.Cumulative)
		}
		execPos := make(map[int]int, len(on.Stages))
		for pos, st := range on.Stages {
			execPos[st.RunnerIndex] = pos
		}
		for k, r := range runners {
			vec := on.Vectors[k]
			simulated, detected := 0, 0
			for i, verdict := range vec {
				switch verdict {
				case VerdictDropped:
					justified := false
					for j := range runners {
						if execPos[j] < execPos[k] && on.Vectors[j][i] == VerdictDetected {
							justified = true
							break
						}
					}
					if !justified {
						t.Fatalf("%s on %s [%s]: fault %d dropped without an earlier detection", r.Name(), u.Name, engine, i)
					}
				default:
					simulated++
					if verdict == VerdictDetected {
						detected++
					}
					if verdict != indepVec[k][i] {
						t.Fatalf("%s on %s [%s]: dropping changed the verdict of fault %d (session %d, independent %d)",
							r.Name(), u.Name, engine, i, verdict, indepVec[k][i])
					}
				}
			}
			if res := on.Results[k]; res.Total != simulated || res.Detected != detected {
				t.Errorf("%s on %s [%s]: dropped Result tallies %d/%d, vector says %d/%d",
					r.Name(), u.Name, engine, res.Detected, res.Total, detected, simulated)
			}
		}
	}
}

func TestSessionDroppingSemanticsPreserving(t *testing.T) {
	t.Parallel()
	engines := []Engine{EngineOracle, EngineBitParallel, EngineCompiled}
	universes := womUniverses(16, 4)
	if testing.Short() {
		universes = universes[:2] // single-cell + stuck-open keep -race fast
	}
	for _, engine := range engines {
		for _, runners := range sessionRunnerPairs() {
			for _, u := range universes {
				assertSessionSemantics(t, runners, u, womFactory(16, 4), engine)
			}
		}
	}
}

// TestSessionCheapestFirstOrdersByCleanOps: the planner's schedule is
// ascending clean-run length while Results stay in runner order.
func TestSessionCheapestFirstOrdersByCleanOps(t *testing.T) {
	t.Parallel()
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(16, 1)}
	runners := []Runner{
		MarchRunner(march.MarchB(), nil),      // 17n
		MarchRunner(march.MATSPlus(), nil),    // 5n
		MarchRunner(march.MarchCMinus(), nil), // 10n
	}
	p := Plan{Runners: runners, Universe: u, Memory: bomFactory(16), Workers: 2, Order: OrderCheapestFirst}
	s := p.Run()
	if len(s.Stages) != 3 {
		t.Fatalf("%d stages", len(s.Stages))
	}
	for i := 1; i < len(s.Stages); i++ {
		prev := s.Results[s.Stages[i-1].RunnerIndex].OpsCleanRun
		cur := s.Results[s.Stages[i].RunnerIndex].OpsCleanRun
		if prev > cur {
			t.Errorf("stage %d (%d ops) ran before stage %d (%d ops)", i-1, prev, i, cur)
		}
	}
	if s.Results[0].Runner != "March B" || s.Results[1].Runner != "MATS+" {
		t.Errorf("Results not in runner order: %s, %s", s.Results[0].Runner, s.Results[1].Runner)
	}
}

// TestSessionStagesReportSurvivors: the stage report carries the
// session-ordered coverage progression, and under dropping each
// stage's Entered equals the previous stage's Survivors.
func TestSessionStagesReportSurvivors(t *testing.T) {
	t.Parallel()
	const n = 24
	u := fault.StandardUniverse(n, 1, 6, 9)
	runners := []Runner{
		MarchRunner(march.MATSPlus(), nil),
		MarchRunner(march.MarchCMinus(), nil),
	}
	p := Plan{Runners: runners, Universe: u, Memory: bomFactory(n), Workers: 2, Drop: true}
	s := p.Run()
	if s.Stages[0].Entered != u.Len() {
		t.Errorf("first stage entered %d, want the full universe %d", s.Stages[0].Entered, u.Len())
	}
	if s.Stages[1].Entered != s.Stages[0].Survivors {
		t.Errorf("stage 2 entered %d, stage 1 left %d survivors", s.Stages[1].Entered, s.Stages[0].Survivors)
	}
	if s.Stages[0].Survivors >= u.Len() {
		t.Error("MATS+ dropped nothing — dropping is not happening")
	}
	if got := s.Stages[len(s.Stages)-1].Survivors; got != u.Len()-s.Cumulative.Detected {
		t.Errorf("final survivors %d != universe %d - cumulative %d", got, u.Len(), s.Cumulative.Detected)
	}
	if s.FormatStages() == "" {
		t.Error("empty stage format")
	}
}

// TestSessionProgramCache: a second run of the same plan hits the
// cache (no re-recording) and returns byte-identical results.
func TestSessionProgramCache(t *testing.T) {
	t.Parallel()
	const n = 16
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 4)}
	cache := sim.NewProgramCache()
	gen := prt.PaperWOMConfig().Gen
	p := Plan{
		Runners: []Runner{
			MarchRunner(march.MarchCMinus(), march.DataBackgrounds(4)),
			PRTRunner(prt.StandardScheme3(gen)),
		},
		Universe: u, Memory: womFactory(n, 4), Workers: 2, Cache: cache,
	}
	first := p.Run()
	for _, st := range first.Stages {
		if st.CacheHit {
			t.Errorf("stage %s hit a cold cache", st.Runner)
		}
	}
	second := p.Run()
	for _, st := range second.Stages {
		if !st.CacheHit {
			t.Errorf("stage %s missed a warm cache", st.Runner)
		}
	}
	for i := range first.Results {
		first.Results[i].Stats, second.Results[i].Stats = nil, nil
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Error("cached session results differ from the recording run")
	}
	if hits, _, entries := cacheStats(cache); hits < 2 || entries != 2 {
		t.Errorf("cache stats: hits=%d entries=%d", hits, entries)
	}
}

func cacheStats(c *sim.ProgramCache) (uint64, uint64, int) { return c.Stats() }

// TestSessionCacheKeyDistinguishesConfigurations is the E10 trap: two
// schemes sharing a display name but differing in configuration must
// not share a cached program.
func TestSessionCacheKeyDistinguishesConfigurations(t *testing.T) {
	t.Parallel()
	const n = 16
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	f1 := prt.PaperBOMConfig().Gen
	a := prt.StandardScheme3(f1)
	b := prt.StandardScheme3(f1)
	it0 := b.Iters[0]
	it0.Trajectory = prt.Descending
	b.Iters[0] = it0
	// Same name, different schedule.
	if a.Name != b.Name {
		t.Fatal("test premise broken: names differ")
	}
	ra, rb := PRTRunner(a), PRTRunner(b)
	ka := ra.(TraceKeyer).TraceKey()
	kb := rb.(TraceKeyer).TraceKey()
	if ka == kb {
		t.Fatal("TraceKey failed to distinguish configurations sharing a name")
	}
	cache := sim.NewProgramCache()
	mk := bomFactory(n)
	resA := (&Plan{Runners: []Runner{ra}, Universe: u, Memory: mk, Workers: 2, Cache: cache}).Run().Results[0]
	resB := (&Plan{Runners: []Runner{rb}, Universe: u, Memory: mk, Workers: 2, Cache: cache}).Run().Results[0]
	wantB := CampaignEngine(rb, u, mk, 2, EngineCompiled)
	resB.Stats, wantB.Stats, resA.Stats = nil, nil, nil
	if !reflect.DeepEqual(resB, wantB) {
		t.Errorf("cached campaign corrupted by a name collision:\n got %+v\nwant %+v", resB, wantB)
	}
	_ = resA
}

// TestCompareBackwardCompatible: an undropped comparison session over
// the shared program cache — the experiment tables' sessions — yields
// rows byte-identical to independent Campaigns.
func TestCompareBackwardCompatible(t *testing.T) {
	t.Parallel()
	const n = 16
	u := fault.StandardUniverse(n, 1, 4, 2)
	runners := []Runner{
		MarchRunner(march.MATSPlus(), nil),
		MarchRunner(march.MarchY(), nil),
	}
	got := (&Plan{Runners: runners, Universe: u, Memory: bomFactory(n), Workers: 2, Cache: SharedProgramCache()}).Run().Results
	for i, r := range runners {
		want := Campaign(r, u, bomFactory(n), 2)
		a, b := got[i], want
		a.Stats, b.Stats = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("session row %d differs from Campaign:\n got %+v\nwant %+v", i, a, b)
		}
	}
}
