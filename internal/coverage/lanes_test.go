package coverage

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/sim"
)

// The lane-width property (this PR's acceptance criterion): the lane
// width is pure throughput plumbing — a session at 4 or 8 lane words
// produces Results, verdict vectors and cumulative tallies
// byte-identical to the single-word session, for every universe
// family, on all three engines (the non-compiled engines must simply
// ignore the knob), with dropping on and off.

func TestLaneWidthEquivalence(t *testing.T) {
	t.Parallel()
	gen := prt.PaperWOMConfig().Gen
	bgs := march.DataBackgrounds(4)
	runners := []Runner{
		MarchRunner(march.MATSPlus(), bgs),
		PRTRunner(prt.StandardScheme3(gen)),
	}
	engines := []Engine{EngineOracle, EngineBitParallel, EngineCompiled}
	universes := womUniverses(16, 4)
	if testing.Short() {
		engines = engines[2:] // only the compiled engine reads the knob
		universes = universes[:2]
	}
	for _, engine := range engines {
		for _, u := range universes {
			for _, drop := range []bool{false, true} {
				run := func(lanes int) *Session {
					p := Plan{
						Runners: runners, Universe: u, Memory: womFactory(16, 4),
						Workers: 4, Engine: engine, Drop: drop, KeepVectors: true,
						LaneWords: lanes,
					}
					return p.Run()
				}
				want := run(1)
				for _, lanes := range []int{4, 8} {
					label := fmt.Sprintf("%s [%s drop=%v lanes=%d]", u.Name, engine, drop, lanes)
					got := run(lanes)
					assertSessionsEqual(t, label, want, got)
					if engine == EngineCompiled {
						st := got.Stages[0].Stats
						if st.LaneWords != lanes {
							t.Errorf("%s: Stats.LaneWords = %d, want %d", label, st.LaneWords, lanes)
						}
						if st.FusedOps == 0 {
							t.Errorf("%s: march stage compiled with no fused super-ops", label)
						}
					}
				}
			}
		}
	}
}

// TestLaneWidthStreamingResumeEquivalence interrupts a wide streaming
// session mid-stage and resumes it: the resumed wide run must be
// byte-identical to an uninterrupted single-word run — the checkpoint
// cut logic never sees lane geometry, only universe indices.
func TestLaneWidthStreamingResumeEquivalence(t *testing.T) {
	t.Parallel()
	// intra-word: fully replayable, and large enough (1152 faults) that
	// a stage spans several 256- or 512-fault chunks.
	fam := streamFamilies()[6]
	count, _ := fam.src.Count()
	chunk := count/16 + 1
	dir := t.TempDir()
	mkPlan := func(src fault.Source, lanes int, path string, rs *checkpoint.State) *Plan {
		return &Plan{
			Runners: fam.runners,
			Stream:  &fault.Stream{Name: fam.name, Source: src},
			Chunk:   chunk, Memory: fam.mk, Workers: 4,
			Engine: EngineCompiled, Drop: true, LaneWords: lanes,
			Checkpoint: &CheckpointConfig{
				Path: path, Every: chunk, Label: "lanes", Seed: 7, Resume: rs,
			},
		}
	}

	want := mkPlan(fam.src, 1, filepath.Join(dir, "ref.fckp"), nil).Run()
	if want.Interrupted {
		t.Fatal("reference run reports interrupted")
	}

	for _, lanes := range []int{4, 8} {
		label := fmt.Sprintf("lanes=%d", lanes)
		file := filepath.Join(dir, fmt.Sprintf("wide%d.fckp", lanes))
		ctx, cancel := context.WithCancel(context.Background())
		cs := &cancelSource{Source: fam.src, cancel: cancel,
			cancelAtFill: midStageFill(count, 4, lanes*sim.BatchSize, chunk)}
		part := mkPlan(cs, lanes, file, nil).RunContext(ctx)
		cancel()
		assertWellFormed(t, label, part)

		rs, err := checkpoint.Load(file)
		if err != nil {
			t.Fatalf("%s: loading the interrupt checkpoint: %v", label, err)
		}
		got := mkPlan(fam.src, lanes, file, rs).Run()
		if got.Interrupted {
			t.Fatalf("%s: resumed run reports interrupted", label)
		}
		assertSessionsEqual(t, label, want, got)
	}
}

// TestDefaultLaneWordsKnob: Plan.LaneWords wins when set, and an unset
// plan compiles at DefaultLaneWords, the fixed single-word width.
func TestDefaultLaneWordsKnob(t *testing.T) {
	t.Parallel()
	if DefaultLaneWords() != 1 {
		t.Fatalf("DefaultLaneWords() = %d, want 1", DefaultLaneWords())
	}
	p := &Plan{}
	if p.laneWords() != 1 {
		t.Fatalf("unset plan resolves %d, want the default 1", p.laneWords())
	}
	p.LaneWords = 8
	if p.laneWords() != 8 {
		t.Fatalf("explicit plan resolves %d, want 8", p.laneWords())
	}

	// The resolved width is what cache keys and compilation actually
	// consume: a session reports it in its stats.
	u := womUniverses(16, 4)[0]
	s := (&Plan{
		Runners:  []Runner{MarchRunner(march.MATSPlus(), march.DataBackgrounds(4))},
		Universe: u, Memory: womFactory(16, 4), Engine: EngineCompiled,
	}).Run()
	if got := s.Stages[0].Stats.LaneWords; got != DefaultLaneWords() {
		t.Fatalf("unset plan's session compiled at %d words", got)
	}
	if !reflect.DeepEqual(s.Cumulative.ByClass, s.Results[0].ByClass) {
		t.Fatal("single-runner session cumulative disagrees with its only result")
	}
}
