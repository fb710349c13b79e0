// The session executor.  Everything that
// accumulates results here must be deterministic: sessions are
// property-tested byte-identical to the per-fault oracle across chunk
// sizes and worker counts, and to interrupted-then-resumed runs.
//
//faultsim:deterministic

package coverage

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file is the session executor: every Plan runs its stages over
// a fault.Source generated in bounded chunks (sim.ShardsStream /
// sim.ShardsCompiledStream / a chunked oracle) — a Stream plan's
// source, or a Universe plan's faults as a fault.SliceSource — so
// session memory is O(Chunk × Workers) fault instances plus one bit
// per universe fault, and the universe size stops being a memory
// bound.  Cross-test fault dropping is held as the cumulative
// detection bitmap: a later stage skips every fault some earlier stage
// already caught.  The property tests assert Results byte-identical to
// the per-fault oracle for every universe family, engine, chunk size
// and plan shape.
//
// Each stage sizes its chunks and worker pool from the number of
// universe indices it will claim (stageShape), so a small campaign
// keeps every worker busy and never allocates chunk buffers larger
// than its universe.  The replay engines require every streamed fault
// to support batch injection (all built-in fault models do); a
// Universe plan probes its faults up front and falls back to the
// per-fault oracle, which has no such constraint.
//
// Every stage's chunks reach the session state through one sink
// discipline, the completion-frontier fold (fold.go), so the state is
// always a prefix-closed cut.  Durability (durable.go) composes onto
// it: when a checkpoint is configured the fold persists that cut on a
// cadence, and a resumed session reconstructs its completed stages
// from the checkpoint and starts the in-flight stage's claims at its
// high-water mark.

// CampaignStream runs a single-runner campaign over a streaming
// universe on the compiled engine, sharing the process-wide program
// cache — the bounded-memory analogue of Campaign.  chunk <= 0 selects
// sim.DefaultChunk.  One divergence from Campaign: the replay engines
// require every streamed fault to support batch injection (all
// built-in fault models do) and fail loudly otherwise — a stream
// cannot be probed up front the way a Universe plan's slice is before
// falling back to the oracle.  Universes of custom non-batchable
// faults must run a Plan with EngineOracle.
func CampaignStream(r Runner, s *fault.Stream, mk MemoryFactory, workers, chunk int) Result {
	p := Plan{
		Runners: []Runner{r}, Stream: s, Chunk: chunk,
		Memory: mk, Workers: workers, Cache: SharedProgramCache(),
	}
	return p.Run().Results[0]
}

// runStream executes the session over stream.  streamed is false when
// stream wraps a Universe plan's slice: the faults are then probed for
// batch injection, and checkpointing and partitioning never apply.
func (p *Plan) runStream(ctx context.Context, stream *fault.Stream, streamed bool) *Session {
	workers := p.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	chunk := p.Chunk
	if chunk <= 0 {
		chunk = sim.DefaultChunk
	}
	src := stream.Source
	end, _ := src.Count()

	// Partitioning: restrict the session to universe indices
	// [partLo, partHi).  The drivers claim [cfg.Base, end) of a view
	// ending at partHi, so delivered indices stay universe-absolute and
	// detection bitmaps and checkpoints from different partitions
	// OR/merge exactly.
	partIdx, partCnt := 0, 0
	if streamed {
		partIdx, partCnt = p.partitionSpec()
	}
	partLo, partHi := 0, -1
	if partCnt > 0 {
		if p.KeepVectors {
			panic("coverage: KeepVectors is incompatible with a partitioned session (vectors span the full universe)")
		}
		partLo, partHi = fault.PartitionRange(end, partIdx-1, partCnt)
		src = fault.SubSource(src, 0, partHi)
		// The bitmaps get full word capacity up to the session's end, so
		// the last partition's bitmap words match the unpartitioned
		// run's length and the merged checkpoint is byte-identical to
		// the single-process one.
		end = partHi
	}

	// Plan: one clean run (or cache hit) per runner, so the executor
	// knows every stage's trace, program and cost before ordering.
	// Streamed faults are assumed batch-injectable (checked per batch
	// by the replay drivers, which fail loudly otherwise).
	batchable := streamed || sim.Batchable(p.Universe.Faults)
	stages := make([]*stage, len(p.Runners))
	for i, r := range p.Runners {
		stages[i] = p.prepareStage(r, i, batchable)
	}
	order := p.executionOrder(stages)

	// Durability setup.  A resume state must match this session: a
	// mismatch is a programmer error (callers validate first with
	// ValidateResume).
	var d *durable
	var rs *checkpoint.State
	var names []string
	cp := p.Checkpoint
	if streamed && cp != nil && cp.Path != "" {
		if p.KeepVectors {
			panic("coverage: KeepVectors is incompatible with checkpointing (verdict vectors are not persisted)")
		}
		mem := p.Memory()
		spec := p.specHash()
		names = make([]string, len(order))
		for i, st := range order {
			names[i] = st.runner.Name()
		}
		d = newDurable(*cp, spec, mem.Size(), mem.Width())
		if cp.Resume != nil {
			if err := validateResume(cp.Resume, spec, mem.Size(), mem.Width(), cp.Seed, names, partLo, partHi, end); err != nil {
				panic(err.Error())
			}
			rs = cp.Resume
		}
	}

	s := &Session{Results: make([]Result, len(p.Runners))}
	if p.KeepVectors {
		s.Vectors = make([][]Verdict, len(p.Runners))
	}

	f := newFold(end, end-partLo, telemetry.Active())
	arenas := &sim.ArenaPool{}
	universeN := -1 // presented count of the first executed stage = |universe|
	doneStages := 0
	var doneRecs []checkpoint.StageRecord

	// Resume: seed the session accumulators from the checkpoint and
	// reconstruct the completed stages' results from their records (the
	// stage metadata — clean-run cost, cache hits — comes from the
	// preparation above, which ran either way).
	if rs != nil {
		f.cum = fault.BitSetFromWords(append([]uint64(nil), rs.Bits...))
		f.detected = f.cum.Count()
		f.universe = classStats(rs.Universe)
		universeN = int(rs.UniverseN)
		doneStages = len(rs.Done)
		doneRecs = append(doneRecs, rs.Done...)
		for _, rec := range rs.Done {
			st := stages[rec.RunnerIndex]
			s.Results[rec.RunnerIndex] = Result{
				Runner:        rec.Runner,
				Universe:      stream.Name,
				Total:         int(rec.Entered),
				Detected:      int(rec.Detected),
				ByClass:       classMap(classStats(rec.ByClass)),
				OpsCleanRun:   st.cleanOps,
				FalsePositive: st.falsePositive,
			}
			s.Stages = append(s.Stages, StageStat{
				Runner:      rec.Runner,
				RunnerIndex: int(rec.RunnerIndex),
				Entered:     int(rec.Entered),
				Detected:    int(rec.Detected),
				Survivors:   int(rec.Survivors),
				CacheHit:    st.cacheHit,
			})
		}
	}

	// buildState serializes the session's cut; cur is the in-flight
	// stage's record (the next stage's, tallies empty, between stages).
	buildState := func(cur checkpoint.StageRecord, highWater int, complete bool) *checkpoint.State {
		return &checkpoint.State{
			SpecHash:    d.spec,
			Seed:        d.cfg.Seed,
			Size:        d.size,
			Width:       d.width,
			PartitionLo: int64(partLo),
			PartitionHi: int64(partHi),
			Label:       d.cfg.Label,
			UniverseN:   int64(universeN),
			StageNames:  names,
			Done:        append([]checkpoint.StageRecord(nil), doneRecs...),
			Cur:         cur,
			HighWater:   int64(highWater),
			Complete:    complete,
			Universe:    classTallies(f.universe),
			Bits:        f.bits(),
		}
	}

	for si := doneStages; si < len(order); si++ {
		st := order[si]
		// The survivor filter for this stage is the cumulative detection
		// bitmap, which stays frozen while the stage runs.  (On resume it
		// also carries this stage's own pre-interrupt detections —
		// equivalent, since those indices are below the resume point and
		// never claimed again.)
		var stageDrop *fault.BitSet
		if p.Drop && f.detected > 0 {
			stageDrop = f.cum
		}
		base := partLo
		var resumed []ClassStat
		if rs != nil && si == doneStages && !rs.Complete {
			// Resuming into this stage: restore its partial tallies and
			// claim from the end of the contiguous completed prefix.
			base = int(rs.HighWater)
			resumed = classStats(rs.Cur.ByClass)
		}
		if d != nil {
			d.lastWrite = base
			f.checkpoint = func(frontier int) {
				if frontier-d.lastWrite >= d.every {
					d.write(buildState(stageRecord(st, f.stage), frontier, false))
				}
			}
		}
		// The stage will present the session's range minus what earlier
		// stages already detected (the drop filter); a mid-stage resume
		// leaves the progress total unknown.
		presents := 0
		if base == partLo {
			presents = end - partLo
			if stageDrop != nil {
				presents -= f.detected
			}
		}
		f.beginStage(st.runner.Name(), presents, base, universeN < 0, resumed)
		cfg := sim.StreamConfig{Drop: stageDrop, Base: base, Arenas: arenas}
		cfg.Chunk, cfg.Workers = stageShape(end-base, workers, st.batchWidth(), chunk)
		t0 := time.Now() //faultsim:ordered stage wall-clock is telemetry, reported beside the deterministic counts
		stats, err := p.detectStream(ctx, st, src, cfg, f.sinkFor)
		stats.PartitionIndex = partIdx
		total, detected := totals(f.stage)
		//faultsim:ordered stage wall-clock is telemetry, reported beside the deterministic counts
		finishStage(stats, st, total, time.Since(t0))
		res := Result{
			Runner:        st.runner.Name(),
			Universe:      stream.Name,
			Total:         total,
			Detected:      detected,
			ByClass:       classMap(f.stage),
			OpsCleanRun:   st.cleanOps,
			FalsePositive: st.falsePositive,
			Interrupted:   err != nil,
			Stats:         stats,
		}
		s.Interrupted = s.Interrupted || err != nil
		s.Results[st.index] = res
		if universeN < 0 && err == nil {
			universeN = total
		}
		if s.Vectors != nil {
			// An interrupted first stage has not enumerated the universe:
			// its vector covers the folded prefix.
			n := universeN
			if n < 0 {
				n = f.frontier
			}
			s.Vectors[st.index] = verdicts(f.stageDet, stageDrop, n)
		}
		survivors := universeN - f.detected
		if universeN < 0 {
			// Interrupted before the first stage finished enumerating:
			// the survivor count among the faults seen so far.
			survivors = total - detected
		}
		s.Stages = append(s.Stages, StageStat{
			Runner:      st.runner.Name(),
			RunnerIndex: st.index,
			Entered:     total,
			Detected:    detected,
			Survivors:   survivors,
			CacheHit:    st.cacheHit,
			Stats:       stats,
		})
		if err != nil {
			// Interrupted: flush a final checkpoint at the fold frontier
			// and stop — the remaining stages never ran.
			if d != nil {
				d.write(buildState(stageRecord(st, f.stage), f.frontier, false))
			}
			f.endStage()
			break
		}
		f.endStage()
		if d != nil {
			rec := stageRecord(st, f.stage)
			rec.Survivors = int64(survivors)
			doneRecs = append(doneRecs, rec)
			f.checkpoint = nil
			if si < len(order)-1 {
				// Stage-boundary checkpoint: the next stage at its range
				// start (high water partLo; 0 unpartitioned).
				d.write(buildState(stageRecord(order[si+1], nil), partLo, false))
			}
		}
	}
	if universeN < 0 {
		universeN = 0
	}

	s.Cumulative = Result{
		Runner:      p.sessionName(),
		Universe:    stream.Name,
		Total:       universeN,
		Detected:    f.detected,
		ByClass:     classMap(f.universe),
		Interrupted: s.Interrupted,
	}
	sumCleanRuns(stages, &s.Cumulative)

	if d != nil && !s.Interrupted {
		// Completion checkpoint: every stage in Done, nothing in flight.
		// Deliberately timestamp-free, so an uninterrupted run and an
		// interrupted-then-resumed run of the same campaign end with
		// byte-identical files.
		d.write(buildState(checkpoint.StageRecord{}, 0, true))
	}
	return s
}

// partitionSpec returns the session's partition restriction, (0, 0)
// when unpartitioned.  Panics unless 1 <= PartitionIndex <=
// PartitionCount on a partitioned plan.
func (p *Plan) partitionSpec() (index, count int) {
	if p.PartitionCount <= 0 {
		return 0, 0
	}
	if p.PartitionIndex < 1 || p.PartitionIndex > p.PartitionCount {
		panic(fmt.Sprintf("coverage: PartitionIndex %d outside [1, %d]", p.PartitionIndex, p.PartitionCount))
	}
	return p.PartitionIndex, p.PartitionCount
}

// stageShape sizes one stage's chunks and worker pool.  left is the
// number of universe indices the stage will claim, after the
// partition and the resumed prefix; workers is the resolved worker
// count, batch the faults one replay pass simulates and maxChunk the
// configured chunk, which is an upper bound.  The stage aims at four
// chunks per worker, so idle workers can take a slow worker's chunks,
// rounds chunks up to whole batches (a cap below one batch reads as
// one batch), and starts no worker that would find no chunk left.
func stageShape(left, workers, batch, maxChunk int) (chunk, nworkers int) {
	chunk = max(batch, min(maxChunk, ceilDiv(ceilDiv(left, 4*workers), batch)*batch))
	return chunk, max(1, min(workers, ceilDiv(left, chunk)))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// batchWidth is the number of faults one replay pass of the stage
// simulates: the compiled program's lane width, one interpreter word,
// or a single fault on the oracle.
func (st *stage) batchWidth() int {
	switch {
	case st.prog != nil:
		return st.prog.BatchFaults()
	case st.tr != nil:
		return sim.BatchSize
	}
	return 1
}

// detectStream runs one stage over the source and returns the engine
// report, with the per-worker times the driver measured; verdicts flow
// to the sinks sinkFor builds, chunk by chunk.  The error is non-nil
// exactly when ctx was cancelled (a partial run); any other driver
// failure panics, as a broken engine invariant.
func (p *Plan) detectStream(ctx context.Context, st *stage, src fault.Source, cfg sim.StreamConfig, sinkFor func(int) sim.ChunkSink) (*EngineStats, error) {
	var stats *EngineStats
	var workers []telemetry.Local
	var err error
	switch {
	case st.prog != nil:
		stats = &EngineStats{
			Engine:     EngineCompiled,
			ProgramOps: st.prog.Ops(),
			TrimmedOps: st.prog.TrimmedOps(),
			LaneWords:  st.prog.LaneWords(),
			FusedOps:   st.prog.FusedOps(),
		}
		workers, err = sim.ShardsCompiledStream(ctx, st.prog, src, cfg, sinkFor)
	case st.tr != nil:
		stats = &EngineStats{Engine: EngineBitParallel}
		workers, err = sim.ShardsStream(ctx, st.tr, src, cfg, sinkFor)
	default:
		// Chunked oracle: the generic driver claims chunks and generates
		// their survivors, the replay closure runs the full algorithm
		// once per fault.
		stats = &EngineStats{Engine: EngineOracle}
		workers, err = sim.StreamShard(ctx, src, cfg, func() (func([]fault.Fault, []uint64) error, func()) {
			return func(batch []fault.Fault, det []uint64) error {
				det[0] = 0
				for i, f := range batch {
					if d, _ := st.runner.Run(f.Inject(p.Memory())); d {
						det[0] |= 1 << uint(i)
					}
				}
				return nil
			}, nil
		}, sinkFor)
	}
	if err != nil && ctx.Err() == nil {
		panic(fmt.Sprintf("coverage: %s streaming replay of %s on %s: %v", stats.Engine, st.runner.Name(), p.UniverseName(), err))
	}
	stats.Workers = len(workers)
	stats.KernelTime = make([]time.Duration, len(workers))
	stats.SinkWait = make([]time.Duration, len(workers))
	stats.SourceWait = make([]time.Duration, len(workers))
	for i, w := range workers {
		stats.Reps += int(w.Reps)
		stats.ExecutedOps += w.Ops
		stats.ScheduledOps += w.Batches * uint64(stats.ProgramOps)
		stats.KernelTime[i], stats.SinkWait[i], stats.SourceWait[i] = w.Kernel, w.SinkWait, w.SourceWait
	}
	return stats, err
}
