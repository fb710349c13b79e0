// The checkpoint format and its durable writer.  Encoding is
// deterministic (identical states must encode to identical bytes — the
// resume property tests diff final checkpoint files), and the write
// path is durable (fsync/close/rename errors are load-bearing).
//
//faultsim:deterministic
//faultsim:durable

package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/bits"
	"os"
	"path/filepath"

	"repro/internal/fault"
)

// magic identifies a checkpoint file; version gates the layout.  Bump
// the version on any layout change — Decode refuses other versions
// rather than misparsing them.
const (
	magic   = "FCKP"
	version = 2 // v2 added the partition range (PartitionLo/PartitionHi)
)

// castagnoli is the CRC-32C table used for the trailer checksum (the
// same polynomial storage systems use; hardware-accelerated on amd64
// and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a checkpoint file whose bytes fail validation —
// truncated, bit-flipped (checksum mismatch), or structurally
// malformed.  A corrupt checkpoint is unusable but never fatal to a
// fresh run; callers should surface the error and refuse to resume.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated file")

// ErrVersion reports a checkpoint written by an incompatible layout
// version.
var ErrVersion = errors.New("checkpoint: unsupported format version")

// ClassTally is a per-fault-class (total, detected) pair.  Class is
// the fault.Class enum value; tallies are kept sorted by class so
// encoding is deterministic.
type ClassTally struct {
	Class    int32
	Total    int64
	Detected int64
}

// StageRecord is one session stage's accumulated outcome — complete
// for records under State.Done, partial (the contiguous prefix below
// State.HighWater) for State.Cur.
type StageRecord struct {
	// Runner is the stage's display name; RunnerIndex its position in
	// the plan's runner slice.
	Runner      string
	RunnerIndex int32
	// Entered counts the faults presented to the stage (post drop
	// filter), Detected how many it caught, Survivors the cumulative
	// undetected universe faults after the stage (meaningful for Done
	// records only).
	Entered   int64
	Detected  int64
	Survivors int64
	// ByClass is the stage's per-class presentation/detection tally,
	// sorted by class.
	ByClass []ClassTally
}

// State is a streaming campaign session's durable snapshot: everything
// needed to reconstruct the session's completed-stage results and
// fast-forward the in-flight stage to a consistent cut.  The cut
// invariant: every universe index below HighWater of the current stage
// has been fully accounted (tallies and detection bits), and no index
// at or above it has — the streaming executor folds chunk verdicts in
// contiguous universe order, so an interrupt never leaves a torn
// state.
//
// A State carries no timestamps: encoding the same campaign state
// always produces the same bytes, so the final checkpoints of an
// interrupted-then-resumed run and an uninterrupted run can be
// compared with a plain file diff.
type State struct {
	// SpecHash fingerprints the campaign specification (universe,
	// runner identities, engine, dropping, order); Seed, Size and Width
	// pin the sampling seed and memory geometry.  Resume refuses any
	// mismatch — a checkpoint is only meaningful against the exact
	// campaign that wrote it.
	SpecHash uint64
	Seed     int64
	Size     int32
	Width    int32
	// PartitionLo/PartitionHi are the universe index range [lo, hi)
	// this state covers when the session ran one partition of a
	// distributed campaign.  An unpartitioned (full-universe) state
	// writes the sentinel (0, -1): any negative PartitionHi means the
	// state spans [0, UniverseN).  Partition states are the inputs of
	// Merge; resume refuses a partition-range mismatch like any other
	// geometry mismatch.
	PartitionLo int64
	PartitionHi int64
	// Label is a human-readable summary of the writing invocation
	// (CLI flags), carried for error messages only — it is not part of
	// the match.
	Label string
	// UniverseN is the enumerated universe size: the faults the first
	// executed stage presented, or -1 before that stage has completed.
	UniverseN int64
	// StageNames is the session's stage execution order (display
	// names); resume validates it against the resuming plan.
	StageNames []string
	// Done holds the completed stages, in execution order.
	Done []StageRecord
	// Cur is the in-flight stage's partial tally and HighWater the
	// universe index of its contiguous completion frontier.  Complete
	// marks a finished session (all stages in Done; Cur is zero).
	Cur       StageRecord
	HighWater int64
	Complete  bool
	// Universe is the per-class (total, detected) tally over the
	// enumerated universe prefix, counting each fault once however many
	// stages saw it; Bits is the cumulative detection bitmap (bit i set
	// = universe fault i detected by some stage), in fault.BitSet word
	// layout.
	Universe []ClassTally
	Bits     []uint64
}

// Hash fingerprints a campaign specification: FNV-1a over the parts,
// length-prefixed so adjacent fields cannot alias.
func Hash(parts ...string) uint64 {
	h := fnv.New64a()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return h.Sum64()
}

// Matches reports whether the checkpoint was written by a campaign
// with this specification fingerprint, geometry and seed.
func (s *State) Matches(specHash uint64, size, width int, seed int64) bool {
	return s.SpecHash == specHash &&
		s.Size == int32(size) && s.Width == int32(width) && s.Seed == seed
}

// PartitionRange returns the universe index range [lo, hi) this state
// covers.  partitioned is false for a full-universe state (negative
// PartitionHi), in which case the range is [0, UniverseN).
func (s *State) PartitionRange() (lo, hi int64, partitioned bool) {
	if s.PartitionHi >= 0 {
		return s.PartitionLo, s.PartitionHi, true
	}
	return 0, s.UniverseN, false
}

// enc is a little-endian append-only encoder.
type enc struct{ b []byte }

func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *enc) tallies(ts []ClassTally) {
	e.u32(uint32(len(ts)))
	for _, t := range ts {
		e.u32(uint32(t.Class))
		e.i64(t.Total)
		e.i64(t.Detected)
	}
}
func (e *enc) stage(r StageRecord) {
	e.str(r.Runner)
	e.u32(uint32(r.RunnerIndex))
	e.i64(r.Entered)
	e.i64(r.Detected)
	e.i64(r.Survivors)
	e.tallies(r.ByClass)
}

// Encode serializes the state: magic, version, body, CRC-32C trailer
// over everything before it.  Identical states encode to identical
// bytes.
func (s *State) Encode() []byte {
	e := &enc{b: make([]byte, 0, 256+8*len(s.Bits))}
	e.b = append(e.b, magic...)
	e.u32(version)
	e.u64(s.SpecHash)
	e.i64(s.Seed)
	e.u32(uint32(s.Size))
	e.u32(uint32(s.Width))
	e.i64(s.PartitionLo)
	e.i64(s.PartitionHi)
	e.str(s.Label)
	e.i64(s.UniverseN)
	e.u32(uint32(len(s.StageNames)))
	for _, n := range s.StageNames {
		e.str(n)
	}
	e.u32(uint32(len(s.Done)))
	for _, r := range s.Done {
		e.stage(r)
	}
	e.stage(s.Cur)
	e.i64(s.HighWater)
	e.bool(s.Complete)
	e.tallies(s.Universe)
	e.u32(uint32(len(s.Bits)))
	for _, w := range s.Bits {
		e.u64(w)
	}
	e.u32(crc32.Checksum(e.b, castagnoli))
	return e.b
}

// dec is the bounds-checked little-endian reader; any overrun flips
// bad, and every accessor after that returns zero values, so Decode
// can parse optimistically and check once.
type dec struct {
	b   []byte
	pos int
	bad bool
}

func (d *dec) take(n int) []byte {
	if d.bad || n < 0 || d.pos+n > len(d.b) {
		d.bad = true
		return nil
	}
	v := d.b[d.pos : d.pos+n]
	d.pos += n
	return v
}
func (d *dec) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}
func (d *dec) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}
func (d *dec) i64() int64 { return int64(d.u64()) }
func (d *dec) str() string {
	n := d.u32()
	if n > math.MaxInt32 {
		d.bad = true
		return ""
	}
	return string(d.take(int(n)))
}
func (d *dec) bool() bool {
	v := d.take(1)
	if v == nil || v[0] > 1 {
		// Encode writes only 0 or 1; any other byte would decode to a
		// state that re-encodes to different bytes.
		d.bad = true
		return false
	}
	return v[0] == 1
}
func (d *dec) count() int {
	n := d.u32()
	// A count cannot exceed the remaining bytes (every element is at
	// least one byte); rejecting here keeps a flipped length field from
	// driving a huge allocation.
	if int64(n) > int64(len(d.b)-d.pos) {
		d.bad = true
		return 0
	}
	return int(n)
}
func (d *dec) tallies() []ClassTally {
	n := d.count()
	if d.bad || n == 0 {
		return nil
	}
	ts := make([]ClassTally, n)
	for i := range ts {
		ts[i] = ClassTally{Class: int32(d.u32()), Total: d.i64(), Detected: d.i64()}
	}
	return ts
}
func (d *dec) stage() StageRecord {
	return StageRecord{
		Runner:      d.str(),
		RunnerIndex: int32(d.u32()),
		Entered:     d.i64(),
		Detected:    d.i64(),
		Survivors:   d.i64(),
		ByClass:     d.tallies(),
	}
}

// Decode parses and validates an encoded state.  The checksum is
// verified first, so any truncation or bit flip anywhere in the file
// surfaces as ErrCorrupt before a single field is trusted.
func Decode(b []byte) (*State, error) {
	if len(b) < len(magic)+8 || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &dec{b: body, pos: len(magic)}
	if v := d.u32(); v != version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, version)
	}
	s := &State{
		SpecHash:    d.u64(),
		Seed:        d.i64(),
		Size:        int32(d.u32()),
		Width:       int32(d.u32()),
		PartitionLo: d.i64(),
		PartitionHi: d.i64(),
		Label:       d.str(),
	}
	s.UniverseN = d.i64()
	if n := d.count(); !d.bad {
		s.StageNames = make([]string, n)
		for i := range s.StageNames {
			s.StageNames[i] = d.str()
		}
	}
	if n := d.count(); !d.bad && n > 0 {
		s.Done = make([]StageRecord, n)
		for i := range s.Done {
			s.Done[i] = d.stage()
		}
	}
	s.Cur = d.stage()
	s.HighWater = d.i64()
	s.Complete = d.bool()
	s.Universe = d.tallies()
	if n := d.count(); !d.bad && n > 0 {
		s.Bits = make([]uint64, n)
		for i := range s.Bits {
			s.Bits[i] = d.u64()
		}
	}
	if d.bad || d.pos != len(body) {
		return nil, fmt.Errorf("%w: malformed body", ErrCorrupt)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// check rejects a state its own fields contradict: a high-water mark
// below zero, outside the partition range it records or past the
// universe size it records; a class tally naming no fault.Class, or
// detecting more faults than it holds (or fewer than none); a stage
// record whose counts are not its class tallies' sums; a detection
// bitmap whose set bits are not the universe tally's detections, or,
// in a partition state, that sets a bit outside its partition range;
// or an in-flight stage that presented more faults than its range
// below the high-water mark holds.  The checksum cannot catch these (a
// file written that way checksums fine), and resuming one would index
// out of range or report impossible results.  Merge relies on the
// partition-range check: it ORs bitmaps as it sums their tallies, so
// two partitions setting one bit would merge into a state whose
// bitmap disagrees with its tally.
func (s *State) check() error {
	lo, hi, partitioned := s.PartitionRange()
	switch {
	case s.HighWater < 0:
		return fmt.Errorf("%w: negative high-water mark %d", ErrCorrupt, s.HighWater)
	case partitioned && !s.Complete && (s.HighWater < lo || s.HighWater > hi):
		return fmt.Errorf("%w: high-water mark %d outside partition [%d, %d)", ErrCorrupt, s.HighWater, lo, hi)
	case s.UniverseN >= 0 && s.HighWater-lo > s.UniverseN:
		return fmt.Errorf("%w: high-water mark %d past the %d-fault universe", ErrCorrupt, s.HighWater, s.UniverseN)
	}
	tallies := [][]ClassTally{s.Universe, s.Cur.ByClass}
	for _, r := range s.Done {
		tallies = append(tallies, r.ByClass)
	}
	nc := int32(len(fault.Classes()))
	for _, ts := range tallies {
		for _, t := range ts {
			switch {
			case t.Class < 0 || t.Class >= nc:
				return fmt.Errorf("%w: tally for unknown fault class %d", ErrCorrupt, t.Class)
			case t.Detected < 0 || t.Detected > t.Total:
				return fmt.Errorf("%w: class %d tally detects %d of %d faults", ErrCorrupt, t.Class, t.Detected, t.Total)
			}
		}
	}
	// A stage record's counts are the sums of its class tallies, which
	// resume restores separately.  (Every tally is non-negative by now,
	// so stopping at the first negative remainder rules out overflow.)
	for _, r := range append([]StageRecord{s.Cur}, s.Done...) {
		entered, detected := r.Entered, r.Detected
		for _, t := range r.ByClass {
			if entered, detected = entered-t.Total, detected-t.Detected; entered < 0 || detected < 0 {
				break
			}
		}
		if entered != 0 || detected != 0 {
			return fmt.Errorf("%w: stage %q records %d presented and %d detected, not its class tallies' sums",
				ErrCorrupt, r.Runner, r.Entered, r.Detected)
		}
	}
	// A session sets one bit per universe detection, under the lock it
	// tallies them under, and a partition's only inside its range.
	var set int64
	for i, w := range s.Bits {
		set += int64(bits.OnesCount64(w))
		base := int64(i) << 6
		if partitioned && w != 0 && (base+int64(bits.TrailingZeros64(w)) < lo || base+63-int64(bits.LeadingZeros64(w)) >= hi) {
			return fmt.Errorf("%w: the detection bitmap sets a bit outside partition [%d, %d)", ErrCorrupt, lo, hi)
		}
	}
	left := set
	for _, t := range s.Universe {
		if left -= t.Detected; left < 0 {
			break
		}
	}
	if left != 0 {
		return fmt.Errorf("%w: the detection bitmap's %d set bits disagree with the universe tally's detections", ErrCorrupt, set)
	}
	// The in-flight stage presents each index below its high-water
	// mark at most once.
	if !s.Complete {
		room := s.HighWater - lo
		for _, t := range s.Cur.ByClass {
			if room -= t.Total; room < 0 {
				return fmt.Errorf("%w: in-flight stage presented more than the %d faults below its high-water mark %d",
					ErrCorrupt, s.HighWater-lo, s.HighWater)
			}
		}
	}
	return nil
}

// WriteAtomic durably replaces path with the encoded state: the bytes
// go to a temp file in the same directory, are fsynced, and renamed
// over path, so a crash at any instant leaves either the previous
// checkpoint or the new one — never a torn file.  The directory entry
// is then fsynced as well, and every error on that chain is returned:
// checkpointing was explicitly requested, and a dropped fsync error
// would let the caller believe a cut is durable when the kernel may
// still lose the rename in a crash.
func WriteAtomic(path string, s *State) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, werr := tmp.Write(s.Encode())
	if werr == nil {
		werr = tmp.Sync()
	}
	// Close after a failed write/sync can only add detail, never mask:
	// the first error of the chain is the one reported.
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("checkpoint: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Durability contract: the rename above is durable only once the
	// containing directory's entry is on stable storage.  A failure
	// anywhere on this path is a real durability loss — the previous
	// checkpoint may reappear after a crash — so it is returned, not
	// logged and forgotten; the campaign is still resumable from the
	// last checkpoint that succeeded.
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir for fsync: %w", err)
	}
	serr := df.Sync()
	cerr := df.Close()
	if serr != nil {
		return fmt.Errorf("checkpoint: fsync dir after rename: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("checkpoint: close dir: %w", cerr)
	}
	return nil
}

// Load reads and decodes the checkpoint at path.
func Load(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return s, nil
}
