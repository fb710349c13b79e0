package coverage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sim"
)

// The resume-equivalence property: for every universe family and all
// three engines, a session interrupted at an arbitrary point and
// resumed from its checkpoint produces Results byte-identical to an
// uninterrupted run — and the final checkpoint files of the two runs
// are byte-identical too (the format carries no timestamps).
// Interrupt points cover the qualitatively different cuts: before the
// first chunk, mid-stage, at a stage boundary, and during every chunk
// claim of the first stage, where the chunks in flight complete out of
// order and the fold parks those ahead of its frontier.

// cancelSource interposes on a Source to cancel a context during its
// k-th Fill.  Workers fill concurrently, so the count is atomic.  The
// first stage of a session drops nothing, so each of its chunk claims
// fills once and its k-th Fill is its k-th claim; a later stage fills
// once per run of survivors, and not at all for a chunk with none.
type cancelSource struct {
	fault.Source
	cancel       context.CancelFunc
	cancelAtFill int64 // 1-based Fill index; 0 disables
	fills        atomic.Int64
}

func (c *cancelSource) Fill(dst []fault.Fault, lo int) {
	if c.fills.Add(1) == c.cancelAtFill {
		c.cancel()
	}
	c.Source.Fill(dst, lo)
}

// firstStageFills is the number of chunks, and so of Fills, of a
// session's first stage over count faults (stageShape's sizing).
func firstStageFills(count, workers, batch, chunk int) int {
	c, _ := stageShape(count, workers, batch, chunk)
	return ceilDiv(count, c)
}

// midStageFill is the Fill a mid-stage cut cancels during: the 4th, or
// the first stage's last when the stage sizing gives it fewer chunks —
// a replay stage's chunk holds at least one batch, so a universe
// smaller than a batch streams as one chunk.
func midStageFill(count, workers, batch, chunk int) int64 {
	return int64(min(4, firstStageFills(count, workers, batch, chunk)))
}

// assertWellFormed checks the partial-session contract: an interrupted
// session is tagged, its tallies are internally consistent, and no
// stage beyond the interrupted one was executed.
func assertWellFormed(t *testing.T, label string, s *Session) {
	t.Helper()
	if !s.Interrupted || !s.Cumulative.Interrupted {
		t.Fatalf("%s: cancelled session not tagged interrupted", label)
	}
	for i, r := range s.Results {
		if r.Detected > r.Total {
			t.Errorf("%s runner %d: detected %d > total %d", label, i, r.Detected, r.Total)
		}
		total, det := 0, 0
		for _, cs := range r.ByClass {
			total += cs.Total
			det += cs.Detected
		}
		if r.Runner != "" && (total != r.Total || det != r.Detected) {
			t.Errorf("%s runner %d: class tallies %d/%d disagree with totals %d/%d",
				label, i, det, total, r.Detected, r.Total)
		}
	}
	if n := len(s.Stages); n > 0 {
		last := s.Stages[n-1]
		if !s.Results[last.RunnerIndex].Interrupted {
			t.Errorf("%s: last executed stage's Result not tagged interrupted", label)
		}
	}
}

func TestResumeEquivalence(t *testing.T) {
	t.Parallel()
	engines := []Engine{EngineOracle, EngineBitParallel, EngineCompiled}
	families := streamFamilies()
	if testing.Short() {
		engines = engines[1:]
		families = families[:3]
	}
	type mode struct {
		name         string
		workers      int
		preCancel    bool
		cancelAtFill int64
	}
	boundaryCuts := 0
	for _, fam := range families {
		count, _ := fam.src.Count()
		chunk := count/16 + 1 // up to ~16 chunks per stage, so mid-stage cancels leave work
		for _, engine := range engines {
			batch := sim.BatchSize
			if engine == EngineOracle {
				batch = 1
			}
			dir := t.TempDir()
			mkPlan := func(src fault.Source, path string, workers int, rs *checkpoint.State) *Plan {
				return &Plan{
					Runners: fam.runners,
					Stream:  &fault.Stream{Name: fam.name, Source: src},
					Chunk:   chunk, Memory: fam.mk, Workers: workers,
					Engine: engine, Drop: true,
					Checkpoint: &CheckpointConfig{
						Path: path, Every: chunk, Label: "prop", Seed: 7, Resume: rs,
					},
				}
			}
			fileA := filepath.Join(dir, "ref.fckp")
			want := mkPlan(fam.src, fileA, 3, nil).Run()
			if want.Interrupted || len(want.Stages) < 2 {
				t.Fatalf("%s [%s]: reference run interrupted or single-stage", fam.name, engine)
			}
			modes := []mode{
				{name: "pre-first-chunk", workers: 4, preCancel: true},
				{name: "mid-stage", workers: 4, cancelAtFill: midStageFill(count, 4, batch, chunk)},
			}
			// The stage-boundary cut cancels during the second stage's
			// first Fill, so it exists only where that stage presents
			// faults.
			if want.Stages[1].Entered > 0 {
				boundaryCuts++
				modes = append(modes, mode{name: "stage-boundary", workers: 4,
					cancelAtFill: int64(firstStageFills(count, 4, batch, chunk) + 1)})
			}
			for k := 1; k <= firstStageFills(count, 3, batch, chunk); k++ {
				modes = append(modes, mode{name: fmt.Sprintf("claim-%d", k), workers: 3, cancelAtFill: int64(k)})
			}
			for _, m := range modes {
				label := fmt.Sprintf("%s [%s %s]", fam.name, engine, m.name)
				fileB := filepath.Join(dir, m.name+".fckp")

				ctx, cancel := context.WithCancel(context.Background())
				if m.preCancel {
					cancel()
				}
				cs := &cancelSource{Source: fam.src, cancel: cancel, cancelAtFill: m.cancelAtFill}
				part := mkPlan(cs, fileB, m.workers, nil).RunContext(ctx)
				cancel()
				assertWellFormed(t, label, part)

				rs, err := checkpoint.Load(fileB)
				if err != nil {
					t.Fatalf("%s: loading the interrupt checkpoint: %v", label, err)
				}
				got := mkPlan(fam.src, fileB, m.workers, rs).Run()
				if got.Interrupted {
					t.Fatalf("%s: resumed run reports interrupted", label)
				}
				assertSessionsEqual(t, label, want, got)

				a, errA := os.ReadFile(fileA)
				b, errB := os.ReadFile(fileB)
				if errA != nil || errB != nil {
					t.Fatalf("%s: reading final checkpoints: %v / %v", label, errA, errB)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s: final checkpoint files differ between the uninterrupted and resumed runs", label)
				}
			}
		}
	}
	t.Logf("%d (family, engine) pairs have a stage-boundary cut", boundaryCuts)
}

// Resuming a checkpoint marked complete reconstructs the whole session
// from its records without re-simulating anything.
func TestResumeCompletedSession(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	path := filepath.Join(t.TempDir(), "done.fckp")
	mkPlan := func(rs *checkpoint.State) *Plan {
		return &Plan{
			Runners: fam.runners,
			Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
			Chunk:   16, Memory: fam.mk, Workers: 4,
			Engine: EngineCompiled, Drop: true,
			Checkpoint: &CheckpointConfig{Path: path, Label: "done", Seed: 3, Resume: rs},
		}
	}
	want := mkPlan(nil).Run()
	rs, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Complete {
		t.Fatal("finished session's checkpoint not marked complete")
	}
	// Count fills: a completed resume must generate no fault.
	cs := &cancelSource{Source: fam.src, cancel: func() {}}
	p := mkPlan(rs)
	p.Stream.Source = cs
	got := p.Run()
	if n := cs.fills.Load(); n != 0 {
		t.Errorf("resuming a complete checkpoint filled %d ranges, want 0", n)
	}
	assertSessionsEqual(t, "complete-resume", want, got)
}

// universeAndStreamPlans returns a Universe plan and the Stream plan
// over the same faults, under the same name, runners and settings.
func universeAndStreamPlans() (uni, str *Plan) {
	const n = 8
	runners := []Runner{MarchRunner(march.MarchCMinus(), nil), MarchRunner(march.MATSPlus(), nil)}
	faults := fault.SingleCellUniverse(n, 1)
	uni = &Plan{
		Runners: runners, Universe: fault.Universe{Name: "single", Faults: faults},
		Memory: bomFactory(n), Drop: true, Order: OrderCheapestFirst,
	}
	str = &Plan{
		Runners: runners, Stream: &fault.Stream{Name: "single", Source: fault.SliceSource(faults)},
		Memory: bomFactory(n), Drop: true, Order: OrderCheapestFirst,
	}
	return uni, str
}

// TestUniversePlanIdentity: a Universe plan has the identity of the
// Stream plan with the same universe name, runners and settings.
func TestUniversePlanIdentity(t *testing.T) {
	t.Parallel()
	uni, str := universeAndStreamPlans()
	spec, size, width, names := uni.PlanIdentity()
	wantSpec, wantSize, wantWidth, wantNames := str.PlanIdentity()
	if spec != wantSpec || size != wantSize || width != wantWidth || !reflect.DeepEqual(names, wantNames) {
		t.Errorf("Universe plan identity %x %dx%d %v, want the Stream plan's %x %dx%d %v",
			spec, size, width, names, wantSpec, wantSize, wantWidth, wantNames)
	}
	if !reflect.DeepEqual(names, []string{"MATS+", "March C-"}) {
		t.Errorf("stage order %v, want cheapest first", names)
	}
}

// TestValidateResumeRefusesUniversePlan: Universe plans never
// checkpoint or resume, so ValidateResume refuses one with
// ErrUniversePlan, even for a checkpoint its Stream twin accepts.
func TestValidateResumeRefusesUniversePlan(t *testing.T) {
	t.Parallel()
	uni, str := universeAndStreamPlans()
	path := filepath.Join(t.TempDir(), "c.fckp")
	str.Checkpoint = &CheckpointConfig{Path: path}
	str.Run()
	rs, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := str.ValidateResume(rs, 0); err != nil {
		t.Fatalf("the Stream plan's own checkpoint refused: %v", err)
	}
	if err := uni.ValidateResume(rs, 0); !errors.Is(err, ErrUniversePlan) {
		t.Errorf("Universe plan ValidateResume = %v, want ErrUniversePlan", err)
	}
}

// Mismatched-resume safety: a checkpoint from a different campaign is
// refused by ValidateResume (the CLI path) and panics when forced in
// as an explicit Plan.Checkpoint.Resume (the programmer-error path).
func TestResumeMismatchRefused(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	path := filepath.Join(t.TempDir(), "c.fckp")
	mkPlan := func(engine Engine, runners []Runner, rs *checkpoint.State) *Plan {
		return &Plan{
			Runners: runners,
			Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
			Chunk:   16, Memory: fam.mk, Workers: 4,
			Engine: engine, Drop: true,
			Checkpoint: &CheckpointConfig{Path: path, Label: "orig", Seed: 7, Resume: rs},
		}
	}
	mkPlan(EngineCompiled, fam.runners, nil).Run()
	rs, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mkPlan(EngineCompiled, fam.runners, nil).ValidateResume(rs, 7); err != nil {
		t.Fatalf("matching resume refused: %v", err)
	}
	if err := mkPlan(EngineCompiled, fam.runners, nil).ValidateResume(rs, 8); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := mkPlan(EngineBitParallel, fam.runners, nil).ValidateResume(rs, 7); err == nil {
		t.Error("engine (spec hash) mismatch accepted")
	}
	if err := mkPlan(EngineCompiled, fam.runners[:1], nil).ValidateResume(rs, 7); err == nil {
		t.Error("stage-list mismatch accepted")
	}
	other := &Plan{
		Runners: fam.runners,
		Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
		Memory:  womFactory(32, 4), Engine: EngineCompiled, Drop: true,
	}
	if err := other.ValidateResume(rs, 7); err == nil {
		t.Error("geometry mismatch accepted")
	}
	// A truncated file surfaces a load error before any of this runs.
	b, _ := os.ReadFile(path)
	trunc := filepath.Join(t.TempDir(), "trunc.fckp")
	if err := os.WriteFile(trunc, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Load(trunc); err == nil {
		t.Error("truncated checkpoint loaded")
	}
	// Forcing the mismatch in explicitly is a programmer error: panic.
	defer func() {
		if recover() == nil {
			t.Error("explicit mismatched Resume did not panic")
		}
	}()
	mkPlan(EngineBitParallel, fam.runners, rs).Run()
}

// A checkpoint whose high-water mark or bitmap lies outside the
// session's range is refused, never a panic mid-run: checkpoint.Decode
// rejects what the state alone contradicts, and ValidateResume — or
// the session, for an explicit Resume — what only the source's Count
// reveals.
func TestResumeRefusesOutOfRangeStates(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	count, _ := fam.src.Count()
	path := filepath.Join(t.TempDir(), "r.fckp")
	mkPlan := func(rs *checkpoint.State) *Plan {
		return &Plan{
			Runners: fam.runners,
			Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
			Chunk:   16, Memory: fam.mk, Workers: 2,
			Engine: EngineCompiled, Drop: true,
			Checkpoint: &CheckpointConfig{Path: path, Label: "range", Seed: 7, Resume: rs},
		}
	}
	mkPlan(nil).Run()
	done, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// The finished state rewritten as in flight in its last stage.
	inFlight := func(highWater, universeN int64) *checkpoint.State {
		st := *done
		last := done.Done[len(done.Done)-1]
		st.Done = done.Done[:len(done.Done)-1]
		st.Cur = checkpoint.StageRecord{Runner: last.Runner, RunnerIndex: last.RunnerIndex}
		st.Complete, st.HighWater, st.UniverseN = false, highWater, universeN
		return &st
	}
	n := done.UniverseN
	for _, tc := range []struct {
		name      string
		highWater int64
	}{{"negative", -5}, {"past the universe", 99_999_999}, {"one past the universe", n + 1}} {
		if _, err := checkpoint.Decode(inFlight(tc.highWater, n).Encode()); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s high water %d: Decode returned %v, want ErrCorrupt", tc.name, tc.highWater, err)
		}
	}
	// Before the first stage completes the universe size is unknown to
	// the state; the source's exact Count still bounds the seek.
	past, err := checkpoint.Decode(inFlight(int64(count)+1, -1).Encode())
	if err != nil {
		t.Fatalf("state of unknown universe size refused by Decode: %v", err)
	}
	const want = "past the source's end"
	if err := mkPlan(nil).ValidateResume(past, 7); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ValidateResume past the source's end: %v, want it to mention %q", err, want)
	}
	expectPanic(t, "explicit resume past the end", want, func() { mkPlan(past).Run() })
	if err := mkPlan(nil).ValidateResume(inFlight(int64(count), -1), 7); err != nil {
		t.Errorf("high water at the source's end refused: %v", err)
	}
	// A zero bitmap word past the range changes no count, but the
	// resumed session would write it into every later checkpoint.
	long := inFlight(int64(count), n)
	long.Bits = append(append([]uint64(nil), done.Bits...), 0)
	const wantWords = "bitmap words"
	if err := mkPlan(nil).ValidateResume(long, 7); err == nil || !strings.Contains(err.Error(), wantWords) {
		t.Errorf("ValidateResume with a bitmap word past the end: %v, want it to mention %q", err, wantWords)
	}
}

// A checkpoint recording a detection outside the session's range —
// below its partition, or at or past the end of its partition or
// universe — is refused: resuming it would count a fault the session
// never presents.  Each case moves one detection of a finished run's
// checkpoint, rewritten as in flight, to the tested index, so the
// bitmap still agrees with the tallies.  A partition state's own range
// bounds its detections, so Decode refuses those; a full-universe
// state's end is the session's to know, so Decode accepts it,
// ValidateResume refuses it and an explicit Resume of it panics.
func TestResumeRefusesDetectionsOutsideRange(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	count, _ := fam.src.Count()
	for _, tc := range []struct {
		name string
		part int // 1-based partition of 3; 0 runs the whole universe
		at   func(lo, end int) int
	}{
		{"at the universe end", 0, func(lo, end int) int { return end }},
		{"below the partition", 2, func(lo, end int) int { return lo - 1 }},
		{"at the partition end", 2, func(lo, end int) int { return end }},
	} {
		path := filepath.Join(t.TempDir(), "c.fckp")
		mkPlan := func(rs *checkpoint.State) *Plan {
			p := &Plan{
				Runners: fam.runners,
				Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
				Chunk:   16, Memory: fam.mk, Workers: 2,
				Engine: EngineCompiled, Drop: true,
				Checkpoint: &CheckpointConfig{Path: path, Label: "bits", Seed: 7, Resume: rs},
			}
			if tc.part > 0 {
				p.PartitionIndex, p.PartitionCount = tc.part, 3
			}
			return p
		}
		mkPlan(nil).Run()
		done, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		lo, end := 0, count
		if tc.part > 0 {
			lo, end = fault.PartitionRange(count, tc.part-1, 3)
		}
		st := *done
		last := done.Done[len(done.Done)-1]
		st.Done = done.Done[:len(done.Done)-1]
		st.Cur = checkpoint.StageRecord{Runner: last.Runner, RunnerIndex: last.RunnerIndex}
		st.Complete, st.HighWater = false, int64(lo)
		words := append([]uint64(nil), done.Bits...)
		u := tc.at(lo, end)
		for len(words) <= u>>6 {
			words = append(words, 0)
		}
		for w, x := range words {
			if x != 0 {
				words[w] &^= x & -x // the lowest detection moves to u
				break
			}
		}
		words[u>>6] |= 1 << (uint(u) & 63)
		st.Bits = words
		rs, err := checkpoint.Decode(st.Encode())
		if tc.part > 0 {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Errorf("%s: Decode = %v, want ErrCorrupt", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Decode refused the edited state: %v", tc.name, err)
		}
		const want = "outside this session's range"
		if err := mkPlan(nil).ValidateResume(rs, 7); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ValidateResume = %v, want it to mention %q", tc.name, err, want)
		}
		expectPanic(t, tc.name+": explicit resume", want, func() { mkPlan(rs).Run() })
	}
}

// KeepVectors holds per-fault verdict vectors that checkpoints do not
// persist; combining the two must fail loudly, not drop data.
func TestCheckpointRejectsKeepVectors(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	defer func() {
		if recover() == nil {
			t.Error("KeepVectors + Checkpoint did not panic")
		}
	}()
	(&Plan{
		Runners: fam.runners,
		Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
		Memory:  fam.mk, Engine: EngineCompiled, KeepVectors: true,
		Checkpoint: &CheckpointConfig{Path: filepath.Join(t.TempDir(), "kv.fckp")},
	}).Run()
}

// TestCancellationHammer is the satellite race test: many concurrent
// streaming campaigns cancelled at staggered points must all drain
// their workers, return well-formed partial sessions, and leak no
// goroutines.  Run it under -race (the CI race job does).
func TestCancellationHammer(t *testing.T) {
	t.Parallel()
	n := 12
	if testing.Short() {
		n = 6
	}
	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-campaign source and plan: sources are stateful.
			fam := streamFamilies()[i%2]
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(time.Duration(i%7) * 150 * time.Microsecond)
				cancel()
			}()
			engines := []Engine{EngineOracle, EngineBitParallel, EngineCompiled}
			s := (&Plan{
				Runners: fam.runners,
				Stream:  &fault.Stream{Name: fam.name, Source: fam.src},
				Chunk:   3, Memory: fam.mk, Workers: 3,
				Engine: engines[i%3], Drop: true,
			}).RunContext(ctx)
			for j, r := range s.Results {
				if r.Detected > r.Total {
					t.Errorf("campaign %d runner %d: detected %d > total %d", i, j, r.Detected, r.Total)
				}
			}
		}(i)
	}
	wg.Wait()
	// Workers must have drained: the goroutine count returns to (near)
	// baseline once the runtime reclaims finished goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak after cancelled campaigns: %d running, baseline %d",
		runtime.NumGoroutine(), baseline)
}

// Materialized sessions honour cancellation too: a cancelled context
// yields a tagged, well-formed partial session.
func TestMaterializedCancellation(t *testing.T) {
	t.Parallel()
	fam := streamFamilies()[0]
	u := fault.Universe{Name: fam.name, Faults: fault.Collect(fam.src)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []Engine{EngineOracle, EngineBitParallel, EngineCompiled} {
		s := (&Plan{
			Runners: fam.runners, Universe: u, Memory: fam.mk,
			Workers: 4, Engine: engine,
		}).RunContext(ctx)
		assertWellFormed(t, fmt.Sprintf("materialized [%s]", engine), s)
		if len(s.Stages) != 1 {
			t.Errorf("[%s]: cancelled-before-start session ran %d stages, want 1", engine, len(s.Stages))
		}
	}
}
