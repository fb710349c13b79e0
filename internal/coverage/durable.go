// Checkpoint glue for streaming sessions: every checkpoint write sits
// on the durable path, and the state it serializes must be
// deterministic (resumed sessions byte-compare against uninterrupted
// ones).
//
//faultsim:deterministic
//faultsim:durable

package coverage

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// This file is the durability glue of streaming sessions: periodic
// checkpoint writes of the fold's cut, and resume.
//
// A usable checkpoint must describe a prefix-closed cut ("everything
// below HighWater is done, nothing above it") although chunks complete
// in scheduling order.  The completion-frontier fold (fold.go) keeps
// the session state itself such a cut, so a checkpoint is just its
// serialization, written from the fold whenever the frontier has
// advanced a full cadence; an interrupt at any instant loses only the
// chunks parked ahead of the frontier, which the resumed run
// re-simulates.
//
// Resume is the mirror image, and index arithmetic: the in-flight
// stage's drivers claim from HighWater on (cfg.Base), so delivered
// indices stay universe-absolute and nothing below HighWater is
// generated again, and the cumulative detection bitmap doubles as the
// stage's drop filter.
// That filter is taken from the checkpoint — which already includes
// the current stage's own detections below HighWater — rather than
// from the stage-start state as in an uninterrupted run; the two are
// equivalent because a contiguous cut guarantees every current-stage
// detection sits below HighWater, and no index below HighWater is ever
// presented again.

// DefaultCheckpointEvery is the checkpoint cadence (in universe faults
// of frontier advance) used when CheckpointConfig.Every <= 0: frequent
// enough that an interrupt loses at most ~1M faults (re-simulated in
// well under a second on the compiled engine), rare enough that the
// fsync+rename cost vanishes against simulation time.
const DefaultCheckpointEvery = 1 << 20

// CheckpointConfig enables durable checkpointing of a streaming
// session.
type CheckpointConfig struct {
	// Path is the checkpoint file (written atomically: temp + fsync +
	// rename).  Empty disables checkpointing.
	Path string
	// Every is the write cadence in universe faults of frontier
	// advance (<= 0 selects DefaultCheckpointEvery).  A final write
	// always happens at stage boundaries, on interrupt, and at session
	// completion regardless of cadence.
	Every int
	// Label is a human-readable summary of the invocation (CLI flags),
	// stored in the file for error messages; it does not participate in
	// resume matching.
	Label string
	// Seed is the sampling seed of the universe the session streams
	// (the faultcov -seed flag); resume refuses a checkpoint written
	// under a different seed.
	Seed int64
	// Resume, when non-nil, fast-forwards the session from the state:
	// completed stages are reconstructed from their records, the
	// in-flight stage resumes at its high-water mark.  The state must
	// match the plan's spec hash, geometry, seed and stage order — a
	// mismatch panics (resuming an unrelated checkpoint would silently
	// fabricate results).  Callers validate first with ValidateResume.
	Resume *checkpoint.State
}

// PlanIdentity returns the spec hash, geometry and stage execution
// order the plan would stamp into its checkpoints — what a CLI needs
// to validate a loaded checkpoint up front (ValidateResume) and refuse
// gracefully instead of panicking mid-campaign.  Only Stream plans
// write checkpoints, but every plan has an identity.
func (p *Plan) PlanIdentity() (specHash uint64, size, width int, stageNames []string) {
	mem := p.Memory()
	names := make([]string, len(p.Runners))
	// OrderCheapestFirst sorts by measured clean-run cost, so identity
	// must prepare stages exactly as the executor will — the clean runs
	// land in the program cache and are not repeated by the session.
	stages := make([]*stage, len(p.Runners))
	for i, r := range p.Runners {
		stages[i] = p.prepareStage(r, i, true)
	}
	for i, st := range p.executionOrder(stages) {
		names[i] = st.runner.Name()
	}
	return p.specHash(), mem.Size(), mem.Width(), names
}

// specHash fingerprints the campaign specification: universe, runner
// identities (TraceKey when available — display names can collide
// across configurations), engine, dropping and ordering.  Chunk size
// and worker count are deliberately excluded: they affect scheduling,
// not results, so a resumed run may change them freely.
func (p *Plan) specHash() uint64 {
	parts := []string{
		"universe=" + p.UniverseName(),
		"engine=" + p.Engine.String(),
		fmt.Sprintf("drop=%t", p.Drop),
		fmt.Sprintf("order=%d", p.Order),
	}
	for _, r := range p.Runners {
		if tk, ok := r.(TraceKeyer); ok {
			parts = append(parts, "runner="+tk.TraceKey())
		} else {
			parts = append(parts, "runner="+r.Name())
		}
	}
	return checkpoint.Hash(parts...)
}

// validateResume checks a loaded state against the resuming session's
// identity.  A nil return means the state describes this exact
// campaign (including its partition range [partLo, partHi); -1 for
// unpartitioned) and can be applied.  end is the session's last index
// plus one (partHi, or the universe size): an in-flight stage cannot
// resume past it, no detection can lie at or past it, and the bitmap,
// which the session writes with words up to end, has none past it.
// (Decode already refuses a partition state with a detection outside
// its range; only a full-universe state's end is unknown to it.)
func validateResume(rs *checkpoint.State, spec uint64, size, width int, seed int64, names []string, partLo, partHi, end int) error {
	if !rs.Matches(spec, size, width, seed) {
		return fmt.Errorf("coverage: checkpoint %q was written by a different campaign "+
			"(spec/geometry/seed mismatch: file has %dx%d seed %d)", rs.Label, rs.Size, rs.Width, rs.Seed)
	}
	fileLo, fileHi := rs.PartitionLo, rs.PartitionHi
	if fileHi < 0 {
		fileLo, fileHi = 0, -1
	}
	if fileLo != int64(partLo) || fileHi != int64(partHi) {
		return fmt.Errorf("coverage: checkpoint %q covers universe range [%d, %d), this session runs [%d, %d) (partition mismatch)",
			rs.Label, fileLo, fileHi, partLo, partHi)
	}
	if len(rs.StageNames) != len(names) {
		return fmt.Errorf("coverage: checkpoint %q has %d stages, plan has %d", rs.Label, len(rs.StageNames), len(names))
	}
	for i, n := range names {
		if rs.StageNames[i] != n {
			return fmt.Errorf("coverage: checkpoint %q stage %d is %q, plan runs %q", rs.Label, i, rs.StageNames[i], n)
		}
	}
	if len(rs.Done) > len(names) {
		return fmt.Errorf("coverage: checkpoint %q records %d completed stages of %d", rs.Label, len(rs.Done), len(names))
	}
	for _, rec := range rs.Done {
		if int(rec.RunnerIndex) < 0 || int(rec.RunnerIndex) >= len(names) {
			return fmt.Errorf("coverage: checkpoint %q stage record indexes runner %d of %d", rs.Label, rec.RunnerIndex, len(names))
		}
	}
	if rs.Complete && len(rs.Done) != len(names) {
		return fmt.Errorf("coverage: checkpoint %q marked complete with %d of %d stages done", rs.Label, len(rs.Done), len(names))
	}
	if !rs.Complete && rs.HighWater > int64(end) {
		return fmt.Errorf("coverage: checkpoint %q resumes at universe index %d, past the source's end at %d", rs.Label, rs.HighWater, end)
	}
	// The highest detection is the last non-zero word's top bit.
	for w := len(rs.Bits) - 1; w >= 0; w-- {
		if x := rs.Bits[w]; x != 0 {
			if u := w<<6 + 63 - bits.LeadingZeros64(x); u >= end {
				return fmt.Errorf("coverage: checkpoint %q records a detection at universe index %d, outside this session's range [%d, %d)",
					rs.Label, u, partLo, end)
			}
			break
		}
	}
	if words := (end + 63) / 64; len(rs.Bits) > words {
		return fmt.Errorf("coverage: checkpoint %q holds %d bitmap words, past the %d of this session's range [%d, %d)",
			rs.Label, len(rs.Bits), words, partLo, end)
	}
	return nil
}

// ErrUniversePlan is ValidateResume's refusal of a Universe plan,
// which never checkpoints or resumes.
var ErrUniversePlan = errors.New("coverage: a Universe plan never checkpoints or resumes")

// ValidateResume reports whether the state can resume this plan — the
// check a caller makes before attaching a state as
// CheckpointConfig.Resume (the in-session validation panics, treating
// a mismatched Resume as a programmer error).  A Universe plan is
// refused with ErrUniversePlan.
func (p *Plan) ValidateResume(rs *checkpoint.State, seed int64) error {
	if p.Stream == nil {
		return ErrUniversePlan
	}
	spec, size, width, names := p.PlanIdentity()
	partLo, partHi := 0, -1
	end, _ := p.Stream.Source.Count()
	if idx, cnt := p.partitionSpec(); cnt > 0 {
		partLo, partHi = fault.PartitionRange(end, idx-1, cnt)
		end = partHi
	}
	return validateResume(rs, spec, size, width, seed, names, partLo, partHi, end)
}

// durable is one streaming session's checkpoint writer.  It writes
// from the fold (under the fold's lock) or between stages, so it needs
// no locking of its own.
type durable struct {
	cfg   CheckpointConfig
	every int
	spec  uint64
	size  int32
	width int32

	lastWrite int // high-water mark of the last write
}

func newDurable(cfg CheckpointConfig, spec uint64, size, width int) *durable {
	every := cfg.Every
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &durable{cfg: cfg, every: every, spec: spec, size: int32(size), width: int32(width)}
}

// write persists st atomically.  A failing write panics: checkpointing
// was explicitly requested, and silently continuing without durability
// is worse than stopping — the campaign is resumable up to the last
// successful write.
func (d *durable) write(st *checkpoint.State) {
	t0 := time.Now() //faultsim:ordered telemetry timing only; never reaches emitted results
	if err := checkpoint.WriteAtomic(d.cfg.Path, st); err != nil {
		panic(fmt.Sprintf("coverage: checkpoint write: %v", err))
	}
	telemetry.Active().CheckpointWrite(time.Since(t0)) //faultsim:ordered telemetry timing only
	d.lastWrite = int(st.HighWater)
}

// stageRecord is st's checkpoint record with the class-indexed tallies
// t (nil for a stage that has presented nothing).
func stageRecord(st *stage, t []ClassStat) checkpoint.StageRecord {
	total, detected := totals(t)
	return checkpoint.StageRecord{
		Runner:      st.runner.Name(),
		RunnerIndex: int32(st.index),
		Entered:     int64(total),
		Detected:    int64(detected),
		ByClass:     classTallies(t),
	}
}

// classTallies converts a class-indexed tally to the checkpoint's
// representation: one entry per class with faults, in class order.
func classTallies(t []ClassStat) []checkpoint.ClassTally {
	var out []checkpoint.ClassTally
	for c, cs := range t {
		if cs.Total > 0 {
			out = append(out, checkpoint.ClassTally{Class: int32(c), Total: int64(cs.Total), Detected: int64(cs.Detected)})
		}
	}
	return out
}

// classStats is the inverse of classTallies.  checkpoint.Decode
// guarantees every class id indexes fault.Classes().
func classStats(ts []checkpoint.ClassTally) []ClassStat {
	t := make([]ClassStat, len(fault.Classes()))
	for _, ct := range ts {
		t[ct.Class] = ClassStat{Total: int(ct.Total), Detected: int(ct.Detected)}
	}
	return t
}
