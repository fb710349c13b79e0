package coverage

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
)

// FuzzSessionMatchesOracle differentially fuzzes the session executor:
// the input decodes into a small random campaign (fuzzCampaign), and
// the compiled and bit-parallel sessions over it — at the decoded
// chunk cap, worker count, lane width, dropping mode, plan shape and
// session mode — must equal the oracle's session over the same
// universe at one worker and the default chunk: Results, Cumulative,
// Stages and (with KeepVectors) Vectors, Stats aside.  A checkpointed
// session's completion checkpoint must also record exactly that
// session; split into the decoded number of partitions, their merged
// checkpoints must equal it byte for byte; and cancelled at the
// decoded Fill, then resumed, the session and its final checkpoint
// file must equal the uninterrupted run's.  The seed corpus lives in
// testdata/fuzz/FuzzSessionMatchesOracle; run the search with
//
//	go test -run '^$' -fuzz '^FuzzSessionMatchesOracle$' -fuzztime 30s ./internal/coverage
func FuzzSessionMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		t.Parallel()
		c := decodeCampaign(data)
		ref := &Plan{
			Runners: c.runners, Universe: fault.Universe{Name: c.name, Faults: fault.Collect(c.src)},
			Memory: c.mk, Workers: 1, Engine: EngineOracle, Drop: c.drop, Order: c.order,
			KeepVectors: c.vectors,
		}
		want := ref.Run()
		for _, engine := range []Engine{EngineBitParallel, EngineCompiled} {
			p := &Plan{
				Runners: c.runners, Chunk: c.chunk, Memory: c.mk, Workers: c.workers,
				lanes: c.lanes, Engine: engine, Drop: c.drop, Order: c.order,
				KeepVectors: c.vectors,
			}
			if c.stream {
				p.Stream = &fault.Stream{Name: c.name, Source: c.src}
			} else {
				p.Universe = ref.Universe
			}
			path := ""
			if c.checkpoint {
				path = filepath.Join(t.TempDir(), "session.fckp")
				p.Checkpoint = &CheckpointConfig{Path: path, Every: c.chunk}
			}
			label := fmt.Sprintf("%s [%s]", c, engine)
			got := p.Run()
			assertSessionsEqual(t, label, want, got)
			if path != "" {
				assertCompletionCheckpoint(t, label, path, got)
				if c.parts > 0 {
					assertPartitionsMerge(t, label, p, c.parts, path)
				}
				if c.cancelAt > 0 {
					assertResumeEquals(t, label, p, c.cancelAt, path, got)
				}
			}
		}
	})
}

// assertPartitionsMerge runs checkpointed plan p as k partitions and
// requires checkpoint.Merge of their completion checkpoints to encode
// byte-identical to p's own, at path.
func assertPartitionsMerge(t *testing.T, label string, p *Plan, k int, path string) {
	t.Helper()
	states := make([]*checkpoint.State, k)
	for i := range states {
		q := *p
		q.PartitionIndex, q.PartitionCount = i+1, k
		q.Checkpoint = &CheckpointConfig{Path: fmt.Sprintf("%s.part%d", path, i+1), Every: p.Checkpoint.Every}
		q.Run()
		st, err := checkpoint.Load(q.Checkpoint.Path)
		if err != nil {
			t.Fatalf("%s: loading partition %d/%d's checkpoint: %v", label, i+1, k, err)
		}
		states[i] = st
	}
	merged, err := checkpoint.Merge(states)
	if err != nil {
		t.Fatalf("%s: merging %d partitions: %v", label, k, err)
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(merged.Encode(), want) {
		t.Errorf("%s: %d merged partitions differ from the unpartitioned completion checkpoint (%v)", label, k, err)
	}
}

// assertResumeEquals cancels checkpointed plan p during its k-th Fill,
// resumes it from the checkpoint that wrote, and requires the resumed
// session to equal the uninterrupted one (want) and its final
// checkpoint file to equal the uninterrupted run's, at path.  A k past
// the session's last Fill interrupts nothing, and the resume then
// starts from the completion checkpoint.
func assertResumeEquals(t *testing.T, label string, p *Plan, k int, path string, want *Session) {
	t.Helper()
	cut := path + ".cut"
	ctx, cancel := context.WithCancel(context.Background())
	q := *p
	q.Stream = &fault.Stream{Name: p.Stream.Name, Source: &cancelSource{Source: p.Stream.Source, cancel: cancel, cancelAtFill: int64(k)}}
	q.Checkpoint = &CheckpointConfig{Path: cut, Every: p.Checkpoint.Every}
	q.RunContext(ctx)
	cancel()
	rs, err := checkpoint.Load(cut)
	if err != nil {
		t.Fatalf("%s: loading the checkpoint cut at Fill %d: %v", label, k, err)
	}
	q = *p
	q.Checkpoint = &CheckpointConfig{Path: cut, Every: p.Checkpoint.Every, Resume: rs}
	got := q.Run()
	label = fmt.Sprintf("%s resumed from Fill %d", label, k)
	if got.Interrupted {
		t.Fatalf("%s: reports interrupted", label)
	}
	assertSessionsEqual(t, label, want, got)
	a, errA := os.ReadFile(path)
	b, errB := os.ReadFile(cut)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("%s: final checkpoint differs from the uninterrupted run's (%v, %v)", label, errA, errB)
	}
}

// assertCompletionCheckpoint checks that the completion checkpoint at
// path records session s: its stage records and class tallies, the
// universe size and the number of detected faults.
func assertCompletionCheckpoint(t *testing.T, label string, path string, s *Session) {
	t.Helper()
	rs, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("%s: loading the completion checkpoint: %v", label, err)
	}
	tallies := func(r Result) []checkpoint.ClassTally {
		var out []checkpoint.ClassTally
		for _, c := range r.Classes() {
			cs := r.ByClass[c]
			out = append(out, checkpoint.ClassTally{Class: int32(c), Total: int64(cs.Total), Detected: int64(cs.Detected)})
		}
		return out
	}
	if !rs.Complete || rs.UniverseN != int64(s.Cumulative.Total) || len(rs.Done) != len(s.Stages) {
		t.Fatalf("%s: checkpoint complete=%v universe=%d with %d stages, session has %d faults in %d stages",
			label, rs.Complete, rs.UniverseN, len(rs.Done), s.Cumulative.Total, len(s.Stages))
	}
	for i, st := range s.Stages {
		rec := rs.Done[i]
		if rec.Runner != st.Runner || int(rec.RunnerIndex) != st.RunnerIndex || rec.Entered != int64(st.Entered) ||
			rec.Detected != int64(st.Detected) || rec.Survivors != int64(st.Survivors) {
			t.Errorf("%s stage %d: checkpoint records %+v, session ran %+v", label, i, rec, st)
		}
		if want := tallies(s.Results[st.RunnerIndex]); !reflect.DeepEqual(rec.ByClass, want) {
			t.Errorf("%s stage %d: checkpoint class tallies %v, session %v", label, i, rec.ByClass, want)
		}
	}
	if want := tallies(s.Cumulative); !reflect.DeepEqual(rs.Universe, want) {
		t.Errorf("%s: checkpoint universe tallies %v, session %v", label, rs.Universe, want)
	}
	if got := fault.BitSetFromWords(rs.Bits).Count(); got != s.Cumulative.Detected {
		t.Errorf("%s: checkpoint bitmap holds %d detections, session %d", label, got, s.Cumulative.Detected)
	}
}

// fuzzCampaign is one decoded fuzz input.
type fuzzCampaign struct {
	desc    string
	name    string
	mk      MemoryFactory
	runners []Runner
	src     fault.Source
	chunk   int
	workers int
	lanes   int
	drop    bool
	order   Order
	stream  bool
	// One session mode at most: verdict vectors, or a checkpointed
	// Stream run.
	vectors    bool
	checkpoint bool
	// Checkpoint mode only: the partitions to split the session into
	// (0 for none) and the Fill to cancel it at before resuming (0 for
	// none).
	parts    int
	cancelAt int
}

func (c fuzzCampaign) String() string { return c.desc }

// decodeCampaign reads a campaign from data one byte per choice; an
// exhausted input reads as zeros, so every byte string decodes.
func decodeCampaign(data []byte) fuzzCampaign {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	var c fuzzCampaign
	// Memory: a BOM, or a WOM of width 1–4, with 4–32 cells.
	bom := next()%2 == 0
	m := 1
	if !bom {
		m = 1 + next()%4
	}
	n := 4 + next()%29
	c.mk = womFactory(n, m)
	if bom {
		c.mk = bomFactory(n)
	}
	gen := prt.PaperBOMConfig().Gen
	switch {
	case m == 4:
		gen = prt.PaperWOMConfig().Gen
	case m > 1:
		f := gf.NewField(m)
		gen = lfsr.MustGenPoly(f, []gf.Elem{1, 2, 2})
	}
	var bgs []ram.Word
	if m > 1 {
		bgs = march.DataBackgrounds(m)
	}

	// Runners: one to three, each a March test, a PRT scheme or the
	// compressed BIST controller.
	lib := march.Library()
	schemes := []prt.Scheme{
		prt.StandardScheme3(gen), prt.StandardScheme3(gen).SignatureOnly(),
		prt.StandardScheme4(gen), prt.ExtendedScheme(gen, 2),
	}
	var names []string
	for i := 1 + next()%3; i > 0; i-- {
		var r Runner
		switch next() % 3 {
		case 0:
			r = MarchRunner(lib[next()%len(lib)], bgs)
		case 1:
			r = PRTRunner(schemes[next()%len(schemes)])
		default:
			r = BISTRunner(prt.StandardScheme3(gen), 0)
		}
		c.runners = append(c.runners, r)
		names = append(names, r.Name())
	}

	// Universe: one fault family; the NPSF families need a bit-oriented
	// grid and the intra-word family a word of two bits or more.
	seed := int64(next())
	pairs := func() []fault.CouplingPair {
		return append(fault.AdjacentPairs(n), fault.SamplePairs(n, m, 1+next()%12, seed)...)
	}
	families := []func() (string, fault.Source){
		func() (string, fault.Source) { return "single-cell", fault.SingleCellSource(n, m) },
		func() (string, fault.Source) { return "stuck-open", fault.StuckOpenSource(n) },
		func() (string, fault.Source) {
			return "retention", fault.RetentionSource(n, m, uint64(1+next()%32))
		},
		func() (string, fault.Source) { return "decoder", fault.DecoderSource(n) },
		func() (string, fault.Source) { return "coupling", fault.CouplingSource(pairs()) },
		func() (string, fault.Source) {
			u := fault.StandardUniverse(n, m, 1+next()%12, seed)
			return "standard", fault.SliceSource(u.Faults)
		},
	}
	if m > 1 {
		families = append(families, func() (string, fault.Source) {
			return "intra-word", fault.IntraWordSource(n, m)
		})
	} else {
		families = append(families,
			func() (string, fault.Source) {
				return "npsf", fault.NPSFSource(n, 3+next()%4, 1+next()%8)
			},
			func() (string, fault.Source) {
				return "anpsf", fault.ANPSFSource(n, 3+next()%4, 1+next()%8)
			})
	}
	c.name, c.src = families[next()%len(families)]()

	// Execution: chunk cap, workers, lanes, dropping, order and shape.
	c.chunk = 1 + (next()<<8|next())%4096
	c.workers = 1 + next()%4
	c.lanes = []int{1, 8}[next()%2]
	c.drop = next()%2 == 1
	c.order = Order(next() % 2)
	c.stream = next()%2 == 1
	// Session mode: 0 (also an exhausted input) is a plain session.
	switch next() % 3 {
	case 1:
		c.vectors = true
	case 2:
		c.checkpoint, c.stream = true, true
	}
	// Checkpoint mode's split and cancel point: 0 (also an exhausted
	// input) is none, so inputs written before these choices keep their
	// meaning.
	if k := next() % 4; k > 0 {
		c.parts = k + 1
	}
	c.cancelAt = next()
	c.desc = fmt.Sprintf("n=%d m=%d bom=%v %v %s seed=%d chunk=%d workers=%d lanes=%d drop=%v order=%d stream=%v vectors=%v checkpoint=%v",
		n, m, bom, names, c.name, seed, c.chunk, c.workers, c.lanes, c.drop, c.order, c.stream, c.vectors, c.checkpoint)
	if c.checkpoint {
		c.desc += fmt.Sprintf(" parts=%d cancel-at-fill=%d", c.parts, c.cancelAt)
	}
	return c
}
