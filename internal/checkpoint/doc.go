// Package checkpoint is the durable-state format of streaming coverage
// campaigns: a versioned, checksummed, atomically-replaced snapshot
// from which an interrupted session resumes without re-simulating
// completed work.
//
// # What a checkpoint captures
//
// A State records the campaign specification fingerprint (spec hash,
// memory geometry, sampling seed — resume refuses any mismatch), the
// completed stages' result tallies, the in-flight stage's contiguous
// completion frontier (HighWater: every universe index below it is
// fully accounted, none above it), the cumulative detection bitmap
// (one bit per universe fault), and the per-class universe tallies.
// That is exactly the state the streaming executor cannot recompute
// cheaply; everything else (compiled programs, clean-run baselines) is
// rebuilt on resume from the plan itself.
//
// The consistency of the cut is the streaming executor's job: chunks
// complete in scheduling order, but when checkpointing is active the
// executor folds chunk verdicts into durable state only in contiguous
// universe order (buffering the out-of-order tail), so a snapshot
// taken at any instant describes a prefix-closed set of simulated
// faults.  Resume is then index arithmetic: fault i of a fault.Source
// is computed from i alone, so the in-flight stage's workers simply
// claim universe indices from HighWater on.  The resumed session's
// results are byte-identical to an uninterrupted run's, a property the
// coverage tests assert across universe families, engines and
// interrupt points.
//
// # Partitioned campaigns and Merge
//
// A State also records the universe index range [PartitionLo,
// PartitionHi) its session covered.  Full-universe sessions write the
// sentinel (0, -1) — any negative PartitionHi reads as "spans [0,
// UniverseN)" — while a partitioned session (one shard of a
// distributed campaign, `faultcov -partition i/N`) records its exact
// subrange; resume refuses a partition-range mismatch like any other
// geometry mismatch.  Merge reassembles completed partition states
// into the full-universe state: it validates that every input is
// Complete, that all inputs agree on spec hash, seed, geometry and
// stage set, and that the ranges tile [0, UniverseN) with no gap or
// overlap (ErrMergeIncomplete, ErrMergeSpec, ErrMergeStages,
// ErrMergeGap, ErrMergeOverlap are each distinct, errors.Is-testable
// refusals); then it sums the stage and universe tallies and ORs the
// detection bitmaps.  Because per-fault outcomes are independent of
// which partition simulated them, the merged state is byte-identical
// to the final checkpoint of an unpartitioned run of the same
// campaign — the coverage partition property tests and the CI
// multi-process smoke both diff the encoded files directly.
//
// # File format and failure model
//
// The encoding is little-endian, length-prefixed, magic "FCKP" +
// version up front and a CRC-32C of the whole body as a trailer.
// Decode verifies the checksum before trusting any field, so
// truncation and bit flips surface as ErrCorrupt rather than as a
// silently wrong resume.  WriteAtomic replaces the file via temp +
// fsync + rename (plus a best-effort directory fsync): a crash at any
// instant leaves either the old checkpoint or the new one, never a
// torn file.  States carry no timestamps — the same campaign state
// always encodes to the same bytes, so final checkpoints of resumed
// and uninterrupted runs can be diffed directly.
package checkpoint
