package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// A byte-level fuzzer stalls behind the CRC trailer: almost every
// mutation is refused by the checksum before a field is read.  These
// fuzzers instead build a State from fuzzed fields, consistent by
// construction unless a fuzzed perturbation breaks one invariant, and
// seal it with Encode; raw fuzzed bytes touch only the framing (magic,
// version, length, trailer), re-sealed where the case wants the
// decoder's field checks rather than the checksum to judge it.

// fuzzFields hands out fuzzed field values from raw bytes, zeros once
// they run out.
type fuzzFields struct{ b []byte }

func (f *fuzzFields) next() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

// upto returns a fuzzed value in [0, n).
func (f *fuzzFields) upto(n int) int { return int(f.next()) % n }

func (f *fuzzFields) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(f.next())
	}
	return v
}

func (f *fuzzFields) str() string {
	s := make([]byte, f.upto(6))
	for i := range s {
		s[i] = f.next()
	}
	return string(s)
}

// tallies returns up to three class tallies sorted by class, each
// detecting at most what it holds; the class may run past the last
// fault.Class.
func (f *fuzzFields) tallies() []ClassTally {
	var ts []ClassTally
	class := -1
	for n := f.upto(4); n > 0; n-- {
		class += 1 + f.upto(3)
		total := int64(f.upto(200))
		ts = append(ts, ClassTally{Class: int32(class), Total: total, Detected: total * int64(f.next()) / 255})
	}
	return ts
}

// stage returns a record whose counts are its tallies' sums.
func (f *fuzzFields) stage(name string) StageRecord {
	r := StageRecord{Runner: name, RunnerIndex: int32(f.upto(4)), Survivors: int64(f.upto(256)), ByClass: f.tallies()}
	for _, t := range r.ByClass {
		r.Entered += t.Total
		r.Detected += t.Detected
	}
	return r
}

// state builds a session state over [lo, lo+span) (unpartitioned when
// lo is negative) for the given stage names, then lets one fuzzed
// perturbation rewrite a field.
func (f *fuzzFields) state(spec uint64, names []string, lo int64, complete bool) *State {
	s := &State{
		SpecHash:    spec,
		Seed:        int64(spec >> 7),
		Size:        int32(spec >> 40),
		Width:       int32(spec>>32) & 7,
		PartitionHi: -1,
		Label:       f.str(),
		StageNames:  names,
		Complete:    complete,
		Universe:    f.tallies(),
	}
	for _, n := range names[:min(len(names), f.upto(len(names)+1))] {
		s.Done = append(s.Done, f.stage(n))
	}
	var det int64
	for _, t := range s.Universe {
		s.UniverseN += t.Total
		det += t.Detected
	}
	if lo >= 0 {
		s.PartitionLo, s.PartitionHi = lo, lo+s.UniverseN
	} else {
		lo = 0
	}
	// The detection bitmap sets det bits, from a fuzzed offset.
	off := int64(f.upto(64))
	s.Bits = make([]uint64, (off+det+63)/64)
	for i := off; i < off+det; i++ {
		s.Bits[i/64] |= 1 << (i % 64)
	}
	if !complete {
		if len(s.Done) < len(names) {
			s.Cur = f.stage(names[len(s.Done)])
		}
		s.HighWater = lo + min(s.UniverseN, s.Cur.Entered+int64(f.upto(16)))
	}
	switch f.upto(12) {
	case 0:
		s.HighWater = int64(f.u64())
	case 1:
		s.UniverseN = int64(f.u64())
	case 2:
		s.Cur.Entered++
	case 3:
		if len(s.Bits) > 0 {
			s.Bits[f.upto(len(s.Bits))] ^= 1 << f.upto(64)
		}
	case 4:
		s.PartitionLo = int64(f.u64())
	case 5:
		s.Universe = append(s.Universe, ClassTally{Class: int32(f.u64()), Total: int64(f.u64()), Detected: int64(f.u64())})
	}
	return s
}

// seal appends body's CRC-32C trailer.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// FuzzDecode: Decode never panics, refuses only with ErrCorrupt or
// ErrVersion, and an accepted file re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7}, 64))
	f.Add(bytes.Repeat([]byte{0x5a, 3, 200, 1}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		ff := &fuzzFields{b: data}
		names := []string{ff.str(), ff.str()}[:1+ff.upto(2)]
		lo := int64(-1)
		if ff.upto(2) == 0 {
			lo = int64(ff.upto(1000))
		}
		s := ff.state(ff.u64(), names, lo, ff.upto(2) == 0)
		b := s.Encode()
		body := b[:len(b)-4]
		switch ff.upto(8) {
		case 4: // truncated or extended file, trailer not re-sealed
			if n := ff.upto(len(b) + 2); n <= len(b) {
				b = b[:n]
			} else {
				b = append(b, ff.next())
			}
		case 5: // another version, re-sealed
			binary.LittleEndian.PutUint32(body[len(magic):], uint32(ff.u64()))
			b = seal(body)
		case 6: // one body byte after the version rewritten, re-sealed
			body[len(magic)+4+ff.upto(len(body)-len(magic)-4)] = ff.next()
			b = seal(body)
		case 7: // body cut short or padded, re-sealed
			if n := len(magic) + 4 + ff.upto(len(body)-len(magic)-4+3); n <= len(body) {
				b = seal(body[:n])
			} else {
				b = seal(append(body, bytes.Repeat([]byte{ff.next()}, n-len(body))...))
			}
		}
		got, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode refused with an untyped error: %v", err)
			}
			return
		}
		if again := got.Encode(); !bytes.Equal(again, b) {
			t.Fatalf("accepted state re-encodes differently:\n file %x\n again %x", b, again)
		}
	})
}

// FuzzMerge: Merge over one to four decoded states never panics and
// refuses only with one of its sentinel errors.  The states share a
// campaign and tile a universe unless fuzzed choices make them differ.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 96))
	f.Add(bytes.Repeat([]byte{0x11, 0, 9, 250, 3}, 40))
	sentinels := []error{ErrMergeIncomplete, ErrMergeSpec, ErrMergeStages, ErrMergeOverlap, ErrMergeGap}
	f.Fuzz(func(t *testing.T, data []byte) {
		ff := &fuzzFields{b: data}
		spec := ff.u64()
		names := []string{"MATS+", "March C-", "PRT-3"}[:1+ff.upto(3)]
		partitioned := ff.upto(4) != 0
		var states []*State
		var next int64
		for n := 1 + ff.upto(4); n > 0; n-- {
			spec, names := spec, names
			if ff.upto(8) == 0 {
				spec ^= 1 << ff.upto(64)
			}
			if ff.upto(8) == 0 {
				names = names[:len(names)-1]
			}
			lo := int64(-1)
			if partitioned {
				lo = next
				if ff.upto(4) == 0 { // a fuzzed gap or overlap
					lo += int64(ff.upto(3)) - 1
				}
			}
			s := ff.state(spec, names, lo, ff.upto(8) != 0)
			next = max(s.PartitionHi, 0)
			d, err := Decode(s.Encode())
			if err != nil {
				continue
			}
			states = append(states, d)
		}
		if len(states) == 0 {
			return
		}
		m, err := Merge(states)
		if err != nil {
			for _, e := range sentinels {
				if errors.Is(err, e) {
					return
				}
			}
			t.Fatalf("Merge refused with an unknown error: %v", err)
		}
		if !m.Complete || m.PartitionHi != -1 || len(m.Done) != len(states[0].Done) {
			t.Fatalf("merged state is not one complete full-universe session: %+v", m)
		}
		m.Encode()
	})
}
