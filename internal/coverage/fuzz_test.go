package coverage

import (
	"fmt"
	"testing"

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
// chunk cap, worker count, lane width, dropping mode and plan shape —
// must equal the oracle's session over the same universe at one worker
// and the default chunk: Results, Cumulative and Stages, Stats aside.
// The seed corpus lives in testdata/fuzz/FuzzSessionMatchesOracle; run
// the search with
//
//	go test -run '^$' -fuzz '^FuzzSessionMatchesOracle$' -fuzztime 30s ./internal/coverage
func FuzzSessionMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCampaign(data)
		ref := &Plan{
			Runners: c.runners, Universe: fault.Universe{Name: c.name, Faults: fault.Collect(c.src)},
			Memory: c.mk, Workers: 1, Engine: EngineOracle, Drop: c.drop, Order: c.order,
		}
		want := ref.Run()
		for _, engine := range []Engine{EngineBitParallel, EngineCompiled} {
			p := &Plan{
				Runners: c.runners, Chunk: c.chunk, Memory: c.mk, Workers: c.workers,
				LaneWords: c.lanes, Engine: engine, Drop: c.drop, Order: c.order,
			}
			if c.stream {
				p.Stream = &fault.Stream{Name: c.name, Source: c.src}
			} else {
				p.Universe = ref.Universe
			}
			assertSessionsEqual(t, fmt.Sprintf("%s [%s]", c, engine), want, p.Run())
		}
	})
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
	c.lanes = []int{1, 4, 8}[next()%3]
	c.drop = next()%2 == 1
	c.order = Order(next() % 2)
	c.stream = next()%2 == 1
	c.desc = fmt.Sprintf("n=%d m=%d bom=%v %v %s seed=%d chunk=%d workers=%d lanes=%d drop=%v order=%d stream=%v",
		n, m, bom, names, c.name, seed, c.chunk, c.workers, c.lanes, c.drop, c.order, c.stream)
	return c
}
