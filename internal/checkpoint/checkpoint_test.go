package checkpoint

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
)

func sampleState() *State {
	// Its universe tally detects 3600 + 3700 faults, so the bitmap
	// holds the first 7300 universe indices: 114 full words and 4 bits.
	bits := make([]uint64, 115)
	for i := range 114 {
		bits[i] = ^uint64(0)
	}
	bits[114] = 0xf
	return &State{
		SpecHash: Hash("universe", "runner-a", "runner-b", "compiled", "drop"),
		Seed:     42,
		Size:     1024,
		Width:    4,
		// The unpartitioned sentinel, as sessions write it: a (0, 0)
		// range would claim an empty partition, which a high-water mark
		// of 4096 contradicts.
		PartitionHi: -1,
		Label:       "-exp E17 -seed 42",
		UniverseN:   9000,
		StageNames:  []string{"MATS+", "March C-"},
		Done: []StageRecord{{
			Runner: "MATS+", RunnerIndex: 1,
			Entered: 9000, Detected: 7000, Survivors: 2000,
			ByClass: []ClassTally{{Class: 0, Total: 4000, Detected: 3500}, {Class: 2, Total: 5000, Detected: 3500}},
		}},
		Cur: StageRecord{
			Runner: "March C-", RunnerIndex: 0,
			Entered: 400, Detected: 300,
			ByClass: []ClassTally{{Class: 0, Total: 400, Detected: 300}},
		},
		HighWater: 4096,
		Universe:  []ClassTally{{Class: 0, Total: 4000, Detected: 3600}, {Class: 2, Total: 5000, Detected: 3700}},
		Bits:      bits,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleState()
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mutated the state:\n got %+v\nwant %+v", got, want)
	}
	// Determinism: same state, same bytes.
	if !bytes.Equal(want.Encode(), want.Encode()) {
		t.Fatal("encoding is not deterministic")
	}
	// A minimal (fresh, pre-first-chunk) state round-trips too.
	min := &State{UniverseN: -1, StageNames: []string{"only"}}
	got, err = Decode(min.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, min) {
		t.Fatalf("minimal round trip: got %+v want %+v", got, min)
	}
}

// TestDecodeRejectsCorruption is the satellite's corrupt-file test:
// every single-bit flip and every truncation of a valid file must be
// rejected (almost always by the checksum; a flip inside the CRC
// trailer itself is caught by the same comparison), never decoded into
// a plausible-but-wrong state.
func TestDecodeRejectsCorruption(t *testing.T) {
	b := sampleState().Encode()
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), b...)
			mut[i] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("flipped bit %d of byte %d: decode accepted the corrupt file", bit, i)
			}
		}
	}
	for n := 0; n < len(b); n++ {
		if _, err := Decode(b[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
	// Trailing garbage is also a corruption, not an extension point.
	if _, err := Decode(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("decode accepted trailing garbage")
	}
}

// TestDecodeRejectsContradictoryStates: a state whose own fields
// contradict each other checksums fine when written that way, so
// Decode must refuse it as ErrCorrupt before resume seeks or indexes
// with it.  Each case is a well-formed sample with one field
// rewritten; the in-range controls must still decode.
func TestDecodeRejectsContradictoryStates(t *testing.T) {
	// partitioned makes the sample partition [1000, 5000) of its
	// universe, every index of it detected.
	partitioned := func(s *State) {
		s.PartitionLo, s.PartitionHi = 1000, 5000
		s.Bits = make([]uint64, 79)
		for i := 1000; i < 5000; i++ {
			s.Bits[i/64] |= 1 << (i % 64)
		}
		s.Universe[1].Detected = 400
	}
	// outside sets universe bit i of a partitioned sample and tallies it.
	outside := func(s *State, i int) {
		partitioned(s)
		s.Bits = append(s.Bits, 0)
		s.Bits[i/64] |= 1 << (i % 64)
		s.Universe[1].Detected++
	}
	presented := func(s *State, n int64) { s.Cur.ByClass[0].Total, s.Cur.Entered = n, n }
	for _, tc := range []struct {
		name    string
		edit    func(*State)
		corrupt bool
	}{
		{"negative high water", func(s *State) { s.HighWater = -5 }, true},
		{"high water past the universe", func(s *State) { s.HighWater = 99_999_999 }, true},
		{"high water one past the universe", func(s *State) { s.HighWater = s.UniverseN + 1 }, true},
		{"high water at the universe end", func(s *State) { s.HighWater = s.UniverseN }, false},
		{"high water below the partition", func(s *State) { partitioned(s); s.HighWater = 999 }, true},
		{"high water past the partition", func(s *State) { partitioned(s); s.HighWater = 5001 }, true},
		{"high water inside the partition", func(s *State) { partitioned(s); s.HighWater = 5000 }, false},
		{"complete partition at high water 0", func(s *State) { partitioned(s); s.HighWater, s.Complete = 0, true }, false},
		{"unknown universe size", func(s *State) { s.UniverseN, s.HighWater = -1, 99_999_999 }, false},
		{"negative universe class", func(s *State) { s.Universe[0].Class = -1 }, true},
		{"universe class past the last", func(s *State) { s.Universe[1].Class = int32(len(fault.Classes())) }, true},
		{"in-flight class past the last", func(s *State) { s.Cur.ByClass[0].Class = 99 }, true},
		{"done class past the last", func(s *State) { s.Done[0].ByClass[1].Class = 1 << 20 }, true},
		{"last class", func(s *State) { s.Universe[1].Class = int32(len(fault.Classes()) - 1) }, false},
		{"done class detects more than it holds", func(s *State) { s.Done[0].ByClass[0].Detected, s.Done[0].Detected = 4001, 7501 }, true},
		{"in-flight class detects more than it holds", func(s *State) { s.Cur.ByClass[0].Detected, s.Cur.Detected = 401, 401 }, true},
		{"negative detections", func(s *State) { s.Done[0].ByClass[1].Detected, s.Done[0].Detected = -1, 3499 }, true},
		{"class detects all it holds", func(s *State) { s.Done[0].ByClass[0].Detected, s.Done[0].Detected = 4000, 7500 }, false},
		{"done record presented past its tallies", func(s *State) { s.Done[0].Entered += 5 }, true},
		{"in-flight record detected short of its tallies", func(s *State) { s.Cur.Detected-- }, true},
		{"negative record with no tallies", func(s *State) { s.Cur.ByClass, s.Cur.Entered, s.Cur.Detected = nil, -3, 0 }, true},
		{"empty in-flight record", func(s *State) { s.Cur.ByClass, s.Cur.Entered, s.Cur.Detected = nil, 0, 0 }, false},
		{"bitmap word past the tally", func(s *State) { s.Bits = append(s.Bits, 1) }, true},
		{"bitmap bit short of the tally", func(s *State) { s.Bits[0] &^= 1 }, true},
		{"tally detection past the bitmap", func(s *State) { s.Universe[1].Detected++ }, true},
		{"bitmap and tally one past together", func(s *State) { s.Bits[114] |= 0x10; s.Universe[1].Detected++ }, false},
		{"partition bit below its range", func(s *State) { outside(s, 999) }, true},
		{"partition bit at its end", func(s *State) { outside(s, 5000) }, true},
		{"partition bit far past its range", func(s *State) { outside(s, 5100) }, true},
		{"partition bits filling its range", partitioned, false},
		{"in-flight total past the high water", func(s *State) { presented(s, 4097) }, true},
		{"in-flight total of 2^40", func(s *State) { presented(s, 1<<40) }, true},
		{"in-flight total at the high water", func(s *State) { presented(s, 4096) }, false},
		{"in-flight total past the partition's high water", func(s *State) { partitioned(s); presented(s, 3097) }, true},
		{"in-flight total at the partition's high water", func(s *State) { partitioned(s); presented(s, 3096) }, false},
	} {
		s := sampleState()
		tc.edit(s)
		got, err := Decode(s.Encode())
		switch {
		case tc.corrupt && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		case !tc.corrupt && err != nil:
			t.Errorf("%s: valid state refused: %v", tc.name, err)
		case !tc.corrupt && !reflect.DeepEqual(got, s):
			t.Errorf("%s: round trip mutated the state", tc.name)
		}
	}
}

// TestMergedPartitionsDecode: partitions [0, 64) and [64, 128) each
// record one detection, both at universe index 70.  Merge would OR the
// two bits into one while summing the tallies to two, a state Decode
// refuses, so Decode must already refuse [0, 64), whose bit lies
// outside its range; with that detection moved inside, the two merge
// into a state that decodes.
func TestMergedPartitionsDecode(t *testing.T) {
	part := func(lo int64, bit int) *State {
		one := []ClassTally{{Class: 0, Total: 64, Detected: 1}}
		s := &State{
			SpecHash: Hash("universe", "MATS+"), PartitionLo: lo, PartitionHi: lo + 64,
			UniverseN: 64, StageNames: []string{"MATS+"},
			Done:     []StageRecord{{Runner: "MATS+", Entered: 64, Detected: 1, Survivors: 63, ByClass: one}},
			Complete: true, Universe: one, Bits: make([]uint64, 2),
		}
		s.Bits[bit/64] |= 1 << (bit % 64)
		return s
	}
	if _, err := Decode(part(0, 70).Encode()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partition [0, 64) with a detection at 70: got %v, want ErrCorrupt", err)
	}
	var states []*State
	for _, s := range []*State{part(0, 6), part(64, 70)} {
		d, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("partition [%d, %d) refused: %v", s.PartitionLo, s.PartitionHi, err)
		}
		states = append(states, d)
	}
	m, err := Merge(states)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(m.Encode()); err != nil {
		t.Fatalf("the merged state does not decode: %v", err)
	}
}

func TestDecodeRejectsForeignVersion(t *testing.T) {
	b := sampleState().Encode()
	// Patch the version field (right after the magic) and recompute the
	// checksum so only the version mismatches.
	b[len(magic)]++
	body := b[:len(b)-4]
	e := &enc{b: append([]byte(nil), body...)}
	e.u32(crc32.Checksum(body, castagnoli))
	if _, err := Decode(e.b); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestMatches(t *testing.T) {
	s := sampleState()
	if !s.Matches(s.SpecHash, 1024, 4, 42) {
		t.Fatal("state does not match its own identity")
	}
	for name, ok := range map[string]bool{
		"spec":  s.Matches(s.SpecHash+1, 1024, 4, 42),
		"size":  s.Matches(s.SpecHash, 512, 4, 42),
		"width": s.Matches(s.SpecHash, 1024, 1, 42),
		"seed":  s.Matches(s.SpecHash, 1024, 4, 7),
	} {
		if ok {
			t.Errorf("mismatched %s accepted", name)
		}
	}
}

func TestHashDisambiguatesAdjacentFields(t *testing.T) {
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Fatal("field boundaries alias in the spec hash")
	}
	if Hash("a") == Hash("a", "") {
		t.Fatal("empty trailing field aliases")
	}
}

func TestWriteAtomicAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.fckp")
	want := sampleState()
	if err := WriteAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("load mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Overwrite leaves no temp litter behind.
	want.HighWater++
	if err := WriteAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "campaign.fckp" {
		t.Fatalf("directory litter after overwrite: %v", ents)
	}
	// A missing file is a plain error, not a panic.
	if _, err := Load(filepath.Join(dir, "absent.fckp")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	// A truncated file on disk surfaces ErrCorrupt through Load.
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// WriteAtomic returns — rather than panics on or drops — every failure
// on its durability chain.  A missing parent directory is the portably
// provokable one; the fsync-after-rename failures share the same
// return path.
func TestWriteAtomicReportsFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "c.fckp")
	if err := WriteAtomic(path, sampleState()); err == nil {
		t.Fatal("WriteAtomic into a missing directory succeeded")
	}
}
