package prt

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/ram"
)

// LaneMode selects how the m parallel bit automatons of a word-oriented
// memory are driven (the paper's §2: intra-word faults are tested "by
// parallel application of a π-testing for BOM … with (1) parallel or
// (2) with random trajectories").
type LaneMode int

const (
	// ParallelLanes drives every bit lane with the same automaton and
	// the same seed: all lanes march in lock-step, so aggressor and
	// victim bits inside a word always carry identical data.  Cheap,
	// but blind to idempotent intra-word coupling that forces the
	// shared value.
	ParallelLanes LaneMode = iota
	// RandomLanes gives every lane its own phase (and optionally its
	// own polynomial), decorrelating the bits inside each word — the
	// paper's randomised-trajectory variant, "controlled by a small
	// hardware overhead that can be programmed externally".
	RandomLanes
)

func (m LaneMode) String() string {
	if m == ParallelLanes {
		return "parallel"
	}
	return "random"
}

// BitSlicedConfig drives m independent GF(2) automatons, one per bit
// lane of a word-oriented memory.
type BitSlicedConfig struct {
	// M is the word width (number of lanes).
	M int
	// Gen is the per-lane generator polynomial over GF(2).
	Gen lfsr.GenPoly
	// Mode selects lane correlation.
	Mode LaneMode
	// LaneSeedSeed parameterises the per-lane seeds in RandomLanes
	// mode (deterministic).
	LaneSeedSeed int64
	// Trajectory is the shared address order (the lanes of one word are
	// written together by a single memory write).
	Trajectory Trajectory
	// PermSeed parameterises the Random trajectory.
	PermSeed int64
	// Verify adds a full read-back pass comparing every cell against
	// the per-lane expected TDB.
	Verify bool
}

// NewBitSliced returns a configuration with the default per-lane
// automaton g(x) = 1 + x + x² over GF(2).
func NewBitSliced(m int, mode LaneMode) BitSlicedConfig {
	f := gf.NewField(1)
	return BitSlicedConfig{
		M:    m,
		Gen:  lfsr.MustGenPoly(f, []gf.Elem{1, 1, 1}),
		Mode: mode,
	}
}

// laneSeeds returns the k-element seed for every lane.
func (c BitSlicedConfig) laneSeeds() [][]gf.Elem {
	k := c.Gen.K()
	seeds := make([][]gf.Elem, c.M)
	if c.Mode == ParallelLanes {
		for b := range seeds {
			s := make([]gf.Elem, k)
			for i := range s {
				s[i] = 1
			}
			seeds[b] = s
		}
		return seeds
	}
	// RandomLanes: walk the orbit so lanes start at different phases;
	// derive an offset per lane from a deterministic generator.
	r := permRNG{s: uint64(c.LaneSeedSeed)*0x9E3779B97F4A7C15 + 1}
	base := make([]gf.Elem, k)
	for i := range base {
		base[i] = 1
	}
	period := lfsr.MustAffine(c.Gen, 0, base).Period(0)
	for b := range seeds {
		offset := uint64(r.intn(int(period)))
		s, err := lfsr.AffineJumpAhead(c.Gen, 0, base, offset)
		if err != nil {
			panic(err)
		}
		seeds[b] = s
		// Guard against the (impossible for nonzero base) zero state.
		if allZeroElems(s) {
			s[0] = 1
		}
	}
	return seeds
}

// RunBitSliced executes one bit-sliced π-iteration on a word-oriented
// memory: each write stores the next bit of every lane automaton
// simultaneously, each step reads back the k previous words.  Returns
// per-lane detection (lane b detected ⇔ lane b's Fin ≠ Fin*).
func RunBitSliced(c BitSlicedConfig, mem ram.Memory) (BitSlicedResult, error) {
	if mem.Width() != c.M {
		return BitSlicedResult{}, fmt.Errorf("prt: bit-sliced width %d != memory width %d", c.M, mem.Width())
	}
	if c.M < 1 || c.M > 32 {
		return BitSlicedResult{}, fmt.Errorf("prt: lane count %d out of range", c.M)
	}
	k := c.Gen.K()
	n := mem.Size()
	if n < k+1 {
		return BitSlicedResult{}, fmt.Errorf("prt: memory too small")
	}
	cfg := Config{Trajectory: c.Trajectory, PermSeed: c.PermSeed}
	addr := cfg.Addresses(n)
	seeds := c.laneSeeds()
	taps := c.Gen.Taps()
	var res BitSlicedResult
	res.LaneDetected = make([]bool, c.M)

	// Trace-replay annotation: every lane applies the same GF(2)
	// recurrence to its own bit column, so each walk write is a
	// bit-diagonal linear function of the k preceding reads.
	var tapRows [][]uint32
	var back []int
	if _, tracing := mem.(ram.TraceAnnotator); tracing {
		for j := 1; j <= k; j++ {
			rows := make([]uint32, c.M)
			if taps[j-1]&1 == 1 {
				for r := 0; r < c.M; r++ {
					rows[r] = 1 << uint(r) // lane r depends on lane r only
				}
			}
			tapRows = append(tapRows, rows)
			back = append(back, j)
		}
	}

	// Seed phase: assemble the seed words from the per-lane seeds.
	for i := 0; i < k; i++ {
		var word ram.Word
		for b := 0; b < c.M; b++ {
			word |= ram.Word(seeds[b][i]&1) << uint(b)
		}
		mem.Write(addr[i], word)
		res.Ops++
	}
	// Walk phase: every lane applies the same GF(2) recurrence to its
	// own bit column.
	for i := k; i < n; i++ {
		prev := make([]ram.Word, k) // prev[j] = value at addr[i-k+j]
		for j := 0; j < k; j++ {
			prev[j] = mem.Read(addr[i-k+j])
			res.Ops++
		}
		var word ram.Word
		for b := 0; b < c.M; b++ {
			var next uint32
			// next_b = Σ_j a_j · bit_b(c_{i-j}) over GF(2)
			for j := 1; j <= k; j++ {
				if taps[j-1]&1 == 1 {
					next ^= uint32(prev[k-j]>>uint(b)) & 1
				}
			}
			word |= ram.Word(next) << uint(b)
		}
		mem.Write(addr[i], word)
		if tapRows != nil {
			ram.AnnotateLinear(mem, back, tapRows, 0)
		}
		res.Ops++
	}
	// Observe per-lane Fin and compare with per-lane predictions.
	fin := make([]ram.Word, k)
	for i := 0; i < k; i++ {
		fin[i] = mem.Read(addr[n-k+i])
		ram.AnnotateChecked(mem)
		res.Ops++
	}
	for b := 0; b < c.M; b++ {
		want, err := lfsr.AffineJumpAhead(c.Gen, 0, seeds[b], uint64(n-k))
		if err != nil {
			return res, err
		}
		for i := 0; i < k; i++ {
			if gf.Elem(fin[i]>>uint(b))&1 != want[i]&1 {
				res.LaneDetected[b] = true
				res.Detected = true
			}
		}
	}
	// Optional full read-back against the per-lane expected TDB.
	if c.Verify {
		laneSeqs := make([][]gf.Elem, c.M)
		for b := 0; b < c.M; b++ {
			laneSeqs[b] = lfsr.MustAffine(c.Gen, 0, seeds[b]).Sequence(n)
		}
		for i := 0; i < n; i++ {
			got := mem.Read(addr[i])
			ram.AnnotateChecked(mem)
			res.Ops++
			for b := 0; b < c.M; b++ {
				if gf.Elem(got>>uint(b))&1 != laneSeqs[b][i]&1 {
					res.LaneDetected[b] = true
					res.Detected = true
				}
			}
		}
	}
	return res, nil
}

// BitSlicedResult reports a bit-sliced π-iteration.
type BitSlicedResult struct {
	Detected     bool
	LaneDetected []bool
	Ops          uint64
}

// BitSlicedScheme returns iters bit-sliced iterations with read-back
// verification, alternating trajectory direction (ascending first) and
// re-seeding lanes each time (RandomLanes mode draws fresh decorrelated
// phases per iteration); at three iterations it mirrors
// StandardScheme3.
func BitSlicedScheme(m int, mode LaneMode, iters int) []BitSlicedConfig {
	base := NewBitSliced(m, mode)
	base.Verify = true
	out := make([]BitSlicedConfig, iters)
	for i := range out {
		c := base
		if i%2 == 1 {
			c.Trajectory = Descending
		}
		c.LaneSeedSeed = int64(i)
		out[i] = c
	}
	return out
}

// RunBitSlicedScheme runs the configurations in order and merges
// detection.
func RunBitSlicedScheme(cfgs []BitSlicedConfig, mem ram.Memory) (BitSlicedResult, error) {
	var merged BitSlicedResult
	for i, c := range cfgs {
		r, err := RunBitSliced(c, mem)
		if err != nil {
			return merged, fmt.Errorf("prt: bit-sliced iteration %d: %w", i+1, err)
		}
		if merged.LaneDetected == nil {
			merged.LaneDetected = make([]bool, len(r.LaneDetected))
		}
		merged.Ops += r.Ops
		for b, d := range r.LaneDetected {
			if d {
				merged.LaneDetected[b] = true
				merged.Detected = true
			}
		}
	}
	return merged, nil
}

// DefaultLanePoly is the per-lane characteristic polynomial x²+x+1 in
// gf2 form, exported for documentation and the BIST gate model.
var DefaultLanePoly = gf2.Poly(0x7)
