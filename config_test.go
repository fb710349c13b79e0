package repro

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/ram"
)

// configure installs cfg for the rest of the test and restores the
// unconfigured harness afterwards.
func configure(t *testing.T, cfg Config) {
	t.Helper()
	Configure(context.Background(), cfg)
	t.Cleanup(func() { configured.Store(nil) })
}

// cfStream is a small streaming universe: every coupling fault of an
// 8-cell memory.
func cfStream() (*fault.Stream, coverage.MemoryFactory) {
	return &fault.Stream{Name: "cf-exhaustive", Source: fault.FullCouplingSource(8)},
		func() ram.Memory { return ram.NewBOM(8) }
}

func stripStats(rs ...coverage.Result) []coverage.Result {
	out := make([]coverage.Result, len(rs))
	for i, r := range rs {
		r.Stats = nil
		out[i] = r
	}
	return out
}

// TestConfigZeroValueReproducesDefaults: under the zero Config every
// session runs as the context-less coverage entry points run it (the
// compiled engine at one lane word, no dropping), and an experiment's
// table is byte-identical to the unconfigured harness's.
func TestConfigZeroValueReproducesDefaults(t *testing.T) {
	render := func() []byte {
		var b bytes.Buffer
		ExperimentPRTvsMarch(16, 4).CSV(&b)
		ExperimentExhaustiveCoupling([]int{8}, 4).CSV(&b)
		return b.Bytes()
	}
	unconfigured := render()
	configure(t, Config{})
	if got := render(); !bytes.Equal(got, unconfigured) {
		t.Errorf("zero Config tables differ from the unconfigured harness:\n%s\nwant\n%s", got, unconfigured)
	}

	u := StandardFaultUniverse(8, 1, 2, 1)
	mk := func() ram.Memory { return ram.NewBOM(8) }
	runners := []coverage.Runner{
		coverage.MarchRunner(march.MATSPlus(), nil),
		coverage.MarchRunner(march.MarchCMinus(), nil),
	}
	got := compare(runners, u, mk)
	for i, r := range runners {
		want := coverage.Campaign(r, u, mk, 0)
		if !reflect.DeepEqual(stripStats(got[i]), stripStats(want)) {
			t.Errorf("compare row %d differs from Campaign:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	res := campaign(runners[0], u, mk)
	if res.Stats.Engine != coverage.EngineCompiled || res.Stats.LaneWords != coverage.DefaultLaneWords() {
		t.Errorf("zero Config ran engine %v at %d lane words", res.Stats.Engine, res.Stats.LaneWords)
	}
	s, smk := cfStream()
	if got, want := campaignStream(runners[1], s, smk), coverage.CampaignStream(runners[1], s, smk, 0, 0); !reflect.DeepEqual(stripStats(got), stripStats(want)) {
		t.Errorf("campaignStream differs from CampaignStream:\n got %+v\nwant %+v", got, want)
	}
	// E17's two streaming sessions above, and this one.
	if StreamedSessions() != 3 || ResumePending() {
		t.Errorf("StreamedSessions = %d, ResumePending = %v; want 3, false", StreamedSessions(), ResumePending())
	}
}

// TestConfigTemplateReachesSessions: the template's engine reaches
// every session, and its Drop the comparison sessions only;
// single-runner sessions and E16's session keep dropping off.  The
// lane width is no setting: every session here, on an 8-cell memory,
// runs at the small-memory width.
func TestConfigTemplateReachesSessions(t *testing.T) {
	var drops []bool
	configure(t, Config{
		Plan:      coverage.Plan{Drop: true},
		OnSession: func(p *coverage.Plan, _ *coverage.Session) { drops = append(drops, p.Drop) },
	})
	u := StandardFaultUniverse(8, 1, 2, 1)
	mk := func() ram.Memory { return ram.NewBOM(8) }
	r := coverage.MarchRunner(march.MarchCMinus(), nil)
	rows := compare([]coverage.Runner{coverage.MarchRunner(march.MATSPlus(), nil), r}, u, mk)
	if rows[1].Total >= rows[0].Total {
		t.Errorf("comparison session did not drop: stage totals %d, %d", rows[0].Total, rows[1].Total)
	}
	s, smk := cfStream()
	for _, res := range append(rows, campaign(r, u, mk), campaignStream(r, s, smk)) {
		if res.Stats.LaneWords != coverage.DefaultLaneWords() {
			t.Errorf("%s ran at %d lane words, want %d", res.Runner, res.Stats.LaneWords, coverage.DefaultLaneWords())
		}
	}
	ExperimentMISRAliasing([]int{16}, []int{1})
	if !reflect.DeepEqual(drops, []bool{true, false, false, false}) {
		t.Errorf("observed Drop %v, want the comparison session's true, then false for campaign, campaignStream and E16", drops)
	}

	configure(t, Config{Plan: coverage.Plan{Engine: coverage.EngineOracle}})
	for _, res := range []coverage.Result{campaign(r, u, mk), campaignStream(r, s, smk)} {
		if res.Stats.Engine != coverage.EngineOracle {
			t.Errorf("%s ran on %v, want the template's oracle", res.Runner, res.Stats.Engine)
		}
	}
}

// completedCheckpoint runs r's streaming session with a checkpoint and
// returns the completion state it wrote.
func completedCheckpoint(t *testing.T, r coverage.Runner, path string) *checkpoint.State {
	t.Helper()
	configure(t, Config{Plan: coverage.Plan{Checkpoint: &coverage.CheckpointConfig{Path: path}}})
	s, mk := cfStream()
	campaignStream(r, s, mk)
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestConfigResumeOfferConsumedByFirstMatchOnly: a session the offer
// does not describe runs fresh and leaves it pending; the first
// matching session resumes from it, and a later identical session runs
// fresh.  A session resumed from a completed checkpoint reconstructs
// its result from the stage records, so it carries no engine Stats.
func TestConfigResumeOfferConsumedByFirstMatchOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.fckp")
	marchC := coverage.MarchRunner(march.MarchCMinus(), nil)
	st := completedCheckpoint(t, marchC, path)
	configure(t, Config{Plan: coverage.Plan{Checkpoint: &coverage.CheckpointConfig{Path: path, Resume: st}}})
	s, mk := cfStream()

	other := campaignStream(coverage.MarchRunner(march.MATSPlus(), nil), s, mk)
	if other.Stats == nil || !ResumePending() {
		t.Fatalf("a non-matching session took the offer (Stats %v, pending %v)", other.Stats, ResumePending())
	}
	resumed := campaignStream(marchC, s, mk)
	if resumed.Stats != nil || ResumePending() {
		t.Fatalf("the matching session did not resume (Stats %v, pending %v)", resumed.Stats, ResumePending())
	}
	fresh := campaignStream(marchC, s, mk)
	if fresh.Stats == nil {
		t.Fatal("a second matching session resumed from the consumed offer")
	}
	if !reflect.DeepEqual(stripStats(resumed), stripStats(fresh)) {
		t.Errorf("resumed result differs from a fresh run:\n got %+v\nwant %+v", resumed, fresh)
	}
}

// TestConfigUnmatchedResumeReported: an offer no session matches stays
// pending, and every session runs fresh.
func TestConfigUnmatchedResumeReported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.fckp")
	st := completedCheckpoint(t, coverage.MarchRunner(march.MarchCMinus(), nil), path)
	cp := &coverage.CheckpointConfig{Path: path, Resume: st}
	configure(t, Config{Plan: coverage.Plan{Drop: true, Engine: coverage.EngineOracle, Checkpoint: cp}})
	s, mk := cfStream()
	if res := campaignStream(coverage.MarchRunner(march.MarchCMinus(), nil), s, mk); res.Stats == nil {
		t.Error("a session under another engine resumed from the offer")
	}
	ExperimentPRTvsMarch(16, 4)
	if !ResumePending() {
		t.Error("an unmatched offer is not reported pending")
	}
}

// TestConfigPartitionAndCheckpointReachStreamingSessionsOnly: the
// template's partition and checkpoint restrict and persist streaming
// sessions; Universe sessions, comparison or single-runner, cover the
// whole universe and write no file.
func TestConfigPartitionAndCheckpointReachStreamingSessionsOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "part.fckp")
	configure(t, Config{Plan: coverage.Plan{
		PartitionIndex: 2, PartitionCount: 3,
		Checkpoint: &coverage.CheckpointConfig{Path: path},
	}})
	u := StandardFaultUniverse(8, 1, 2, 1)
	mk := func() ram.Memory { return ram.NewBOM(8) }
	r := coverage.MarchRunner(march.MarchCMinus(), nil)
	rows := compare([]coverage.Runner{coverage.MarchRunner(march.MATSPlus(), nil), r}, u, mk)
	for _, res := range append(rows, campaign(r, u, mk)) {
		if res.Total != len(u.Faults) || res.Stats.PartitionIndex != 0 {
			t.Errorf("Universe session %s covered %d of %d faults in partition %d",
				res.Runner, res.Total, len(u.Faults), res.Stats.PartitionIndex)
		}
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("Universe sessions wrote checkpoints: %v (%v)", files, err)
	}
	if StreamedSessions() != 0 {
		t.Fatalf("StreamedSessions = %d before any streaming session", StreamedSessions())
	}

	s, smk := cfStream()
	count, _ := s.Source.Count()
	lo, hi := fault.PartitionRange(count, 1, 3)
	res := campaignStream(r, s, smk)
	if res.Total != hi-lo || res.Stats.PartitionIndex != 2 {
		t.Errorf("streaming session covered %d faults in partition %d, want %d in 2", res.Total, res.Stats.PartitionIndex, hi-lo)
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("streaming session wrote no checkpoint: %v", err)
	}
	if st.PartitionLo != int64(lo) || st.PartitionHi != int64(hi) || !st.Complete {
		t.Errorf("checkpoint covers [%d, %d) complete=%v, want [%d, %d) complete", st.PartitionLo, st.PartitionHi, st.Complete, lo, hi)
	}
	if StreamedSessions() != 1 {
		t.Errorf("StreamedSessions = %d, want 1", StreamedSessions())
	}
}

// TestSessionObserverFiresForEverySession: OnSession sees every
// session with the plan it ran, single-runner ones and E16's own
// included.  Which of them a report prints (faultcov -session keeps
// those of two or more runners) is the observer's choice.
func TestSessionObserverFiresForEverySession(t *testing.T) {
	var runners []int
	configure(t, Config{OnSession: func(p *coverage.Plan, s *coverage.Session) {
		if len(s.Results) != len(p.Runners) {
			t.Errorf("session of %d results reported with a plan of %d runners", len(s.Results), len(p.Runners))
		}
		runners = append(runners, len(p.Runners))
	}})
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(8, 1)}
	mk := func() ram.Memory { return ram.NewBOM(8) }
	campaign(coverage.MarchRunner(march.MATSPlus(), nil), u, mk)
	s, smk := cfStream()
	campaignStream(coverage.MarchRunner(march.MATSPlus(), nil), s, smk)
	compare([]coverage.Runner{
		coverage.MarchRunner(march.MATSPlus(), nil),
		coverage.MarchRunner(march.MarchCMinus(), nil),
	}, u, mk)
	ExperimentMISRAliasing([]int{16}, []int{1, 2})
	if !reflect.DeepEqual(runners, []int{1, 1, 2, 3}) {
		t.Errorf("observer saw sessions of %v runners, want [1 1 2 3]", runners)
	}
}
