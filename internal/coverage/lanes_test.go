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
	"repro/internal/ram"
	"repro/internal/sim"
)

// The lane-width property: the lane width is pure throughput plumbing
// — a session forced to 8 lane words produces Results, verdict vectors
// and cumulative tallies byte-identical to the single-word session,
// for every universe family, on all three engines (the non-compiled
// engines must simply ignore it), with dropping on and off.

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
		engines = engines[2:] // only the compiled engine has a lane width
		universes = universes[:2]
	}
	for _, engine := range engines {
		for _, u := range universes {
			for _, drop := range []bool{false, true} {
				run := func(lanes int) *Session {
					p := Plan{
						Runners: runners, Universe: u, Memory: womFactory(16, 4),
						Workers: 4, Engine: engine, Drop: drop, KeepVectors: true,
						lanes: lanes,
					}
					return p.Run()
				}
				want := run(1)
				label := fmt.Sprintf("%s [%s drop=%v]", u.Name, engine, drop)
				got := run(sim.MaxLaneWords)
				assertSessionsEqual(t, label, want, got)
				if engine == EngineCompiled {
					st := got.Stages[0].Stats
					if st.LaneWords != sim.MaxLaneWords {
						t.Errorf("%s: Stats.LaneWords = %d, want %d", label, st.LaneWords, sim.MaxLaneWords)
					}
					if st.FusedOps == 0 {
						t.Errorf("%s: march stage compiled with no fused super-ops", label)
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
	// a stage spans several 512-fault chunks.
	fam := streamFamilies()[6]
	count, _ := fam.src.Count()
	chunk := count/16 + 1
	dir := t.TempDir()
	mkPlan := func(src fault.Source, lanes int, path string, rs *checkpoint.State) *Plan {
		return &Plan{
			Runners: fam.runners,
			Stream:  &fault.Stream{Name: fam.name, Source: src},
			Chunk:   chunk, Memory: fam.mk, Workers: 4,
			Engine: EngineCompiled, Drop: true, lanes: lanes,
			Checkpoint: &CheckpointConfig{
				Path: path, Every: chunk, Label: "lanes", Seed: 7, Resume: rs,
			},
		}
	}

	want := mkPlan(fam.src, 1, filepath.Join(dir, "ref.fckp"), nil).Run()
	if want.Interrupted {
		t.Fatal("reference run reports interrupted")
	}

	const lanes = sim.MaxLaneWords
	file := filepath.Join(dir, "wide.fckp")
	ctx, cancel := context.WithCancel(context.Background())
	cs := &cancelSource{Source: fam.src, cancel: cancel,
		cancelAtFill: midStageFill(count, 4, lanes*sim.BatchSize, chunk)}
	part := mkPlan(cs, lanes, file, nil).RunContext(ctx)
	cancel()
	assertWellFormed(t, "wide", part)

	rs, err := checkpoint.Load(file)
	if err != nil {
		t.Fatalf("loading the interrupt checkpoint: %v", err)
	}
	got := mkPlan(fam.src, lanes, file, rs).Run()
	if got.Interrupted {
		t.Fatal("resumed run reports interrupted")
	}
	assertSessionsEqual(t, "wide", want, got)
}

// TestLaneWidthFollowsCellCount: with no width forced, every compiled
// stage on a memory of 512 cells or more replays 512 machines per pass,
// and every stage on a smaller memory DefaultLaneWords' 64, whatever
// the universe size.
func TestLaneWidthFollowsCellCount(t *testing.T) {
	t.Parallel()
	if DefaultLaneWords() != 1 {
		t.Fatalf("DefaultLaneWords() = %d, want 1", DefaultLaneWords())
	}
	runners := []Runner{MarchRunner(march.MATSPlus(), nil), MarchRunner(march.MarchCMinus(), nil)}
	for cells, want := range map[int]int{wideCells - 1: 1, wideCells: sim.MaxLaneWords} {
		u := fault.Universe{Name: "saf", Faults: fault.SingleCellUniverse(cells, 1)[:100]}
		mk := func() ram.Memory { return ram.NewBOM(cells) }
		s := (&Plan{Runners: runners, Universe: u, Memory: mk}).Run()
		for _, st := range s.Stages {
			if st.Stats.Engine != EngineCompiled || st.Stats.LaneWords != want {
				t.Errorf("%d cells: stage %s ran on %s at %d lane words, want compiled at %d",
					cells, st.Runner, st.Stats.Engine, st.Stats.LaneWords, want)
			}
		}
		one := (&Plan{Runners: runners[:1], Universe: u, Memory: mk}).Run()
		if !reflect.DeepEqual(one.Cumulative.ByClass, one.Results[0].ByClass) {
			t.Errorf("%d cells: single-runner session cumulative disagrees with its only result", cells)
		}
	}
}
