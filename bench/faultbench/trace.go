package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The traced run.  End-to-end metrics come from untraced runs; this one
// produces the per-layer metrics, from spans recorded by the benchmark's
// own code around each call into a layer:
//
//	(a) a single-worker campaign driven one public call at a time, in
//	    the order the shard drivers make them, compared with a
//	    single-worker Plan.Run on the same inputs (residual_frac);
//	(b) 2-worker Plan.Runs with a telemetry registry attached, for the
//	    per-worker time shares, alternated with untraced ones for the
//	    tracing overhead and the process metrics;
//	(c) standalone timing of sim.Record, sim.Compile and the checkpoint
//	    calls.

// span is one timed call.  Spans of one campaign share its id.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Campaign int    `json:"campaign"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin   time.Time
	spans    []span
	campaign int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Campaign: t.campaign,
		Name: name, StartNs: time.Since(t.origin).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.origin).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover; campaign 0 selects every span.
func (t *tracer) selfTimes(campaign int) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if campaign == 0 || s.Campaign == campaign {
			out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered(children[s.ID]))
		}
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, x := range iv {
		switch {
		case i == 0:
			lo, hi = x[0], x[1]
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	return total + hi - lo
}

// groupSpans only group layer spans; every other span times one layer.
var groupSpans = map[string]bool{"campaign": true, "coverage.stage": true}

const (
	standaloneRepeats = 5
	decompRepeats     = 15
	minTracedPairs    = 3
	evalRepeats       = 3
)

// kernelFamily classifies a stage's replay kernel family.
func kernelFamily(tr *sim.Trace, p *sim.Program) string {
	affine := p.Summary().Affine
	switch {
	case tr.Observes > 0:
		return "observer"
	case p.Width() == 1 && affine:
		return "width1_affine"
	case p.Width() == 1:
		return "width1"
	case affine:
		return "generic_affine"
	default:
		return "generic"
	}
}

// standalone times sim.Record and sim.Compile per stage (medians of
// standaloneRepeats calls, summed over stages) and returns each stage's
// kernel family.
func standalone(t *tracer, c *campaign, lanes int, res *workloadResult) ([]string, error) {
	var record, compile float64
	var ops, fused, trimmed int
	families := make([]string, len(c.plan.Runners))
	for i, r := range c.plan.Runners {
		var recs, comps []time.Duration
		for k := 0; k < standaloneRepeats; k++ {
			mem := c.plan.Memory()
			id := t.begin("sim.record", 0)
			tr, _, _ := sim.Record(mem, r.Run)
			recs = append(recs, t.end(id))
			id = t.begin("sim.compile", 0)
			prog, err := sim.Compile(tr, lanes)
			comps = append(comps, t.end(id))
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", r.Name(), err)
			}
			families[i] = kernelFamily(tr, prog)
			if k == 0 {
				ops, fused, trimmed = ops+prog.Ops(), fused+prog.FusedOps(), trimmed+prog.TrimmedOps()
			}
		}
		record += medianDur(recs)
		compile += medianDur(comps)
	}
	res.set("sim.record_s", record, nil)
	res.set("sim.compile_s", compile, nil)
	res.set("sim.program_ops", float64(ops), nil)
	res.set("sim.fused_ops", float64(fused), nil)
	res.set("sim.trimmed_ops", float64(trimmed), nil)
	return families, nil
}

// sourceAndUniverse times the universe build and a drain of its source.
func sourceAndUniverse(t *tracer, c *campaign, res *workloadResult) {
	var builds, drains []float64
	buf := make([]fault.Fault, sim.DefaultChunk)
	for k := 0; k < standaloneRepeats; k++ {
		id := t.begin("fault.universe_build", 0)
		c.buildUniverse()
		builds = append(builds, t.end(id).Seconds())
		c.source.Reset()
		n := 0
		id = t.begin("fault.drain", 0)
		for more := true; more; {
			var k int
			k, more = c.source.Next(buf)
			n += k
		}
		drains = append(drains, float64(t.end(id).Nanoseconds())/float64(n))
	}
	res.set("fault.universe_build_s", median(builds), builds)
	res.set("fault.next_ns_per_fault", median(drains), drains)
}

// checkpointCalls runs the campaign once as a durable streaming session
// (a materialized universe streams through a SliceSource), checks its
// final checkpoint, then times WriteAtomic and Load of that state.
func checkpointCalls(t *tracer, c *campaign, cfg runConfig, want tally, res *workloadResult) error {
	p := c.plan
	if p.Stream == nil {
		p.Stream = &fault.Stream{Name: p.Universe.Name, Source: fault.SliceSource(p.Universe.Faults)}
	}
	dir, err := os.MkdirTemp(cfg.outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "standalone.fckp")
	p.Checkpoint = &coverage.CheckpointConfig{Path: path, Every: checkpointEvery, Seed: cfg.seed}
	if c.cold {
		p.Cache = sim.NewProgramCache()
	}
	s := p.Run()
	err = (&campaign{plan: p}).check(s, want)
	res.attempt(err)
	if err != nil {
		return err
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		return err
	}
	res.set("checkpoint.bytes", float64(len(st.Encode())), nil)
	var writes, loads []float64
	for k := 0; k < 2*standaloneRepeats; k++ {
		id := t.begin("checkpoint.write_atomic", 0)
		err := checkpoint.WriteAtomic(path, st)
		writes = append(writes, float64(t.end(id).Nanoseconds())/1e6)
		if err != nil {
			return err
		}
		id = t.begin("checkpoint.load", 0)
		_, err = checkpoint.Load(path)
		loads = append(loads, float64(t.end(id).Nanoseconds())/1e6)
		if err != nil {
			return err
		}
	}
	res.set("checkpoint.write_ms", median(writes), writes)
	res.set("checkpoint.load_ms", median(loads), loads)
	return nil
}

// decomp is what one decomposed campaign measured.
type decomp struct {
	tally      tally
	layers     map[string]time.Duration // self time per layer span name
	presented  int                      // faults handed to collapse (and expanded back)
	reps       int                      // representatives replayed
	batchSlots int                      // batches × machines per batch
	replayNs   map[string]float64       // per kernel family
	opMachines map[string]float64       // ops × reps, per kernel family
}

// decompose drives one single-worker campaign through the layers one
// public call at a time, as the shard drivers do: Source.Next, the
// drop filter, fault.Collapse (or CollapseView), Program.ReplayInto per
// batch, Collapsed.ExpandInto, and the fold of verdicts into a
// fault.BitSet and the class tallies.
func decompose(t *tracer, c *campaign, families []string, lanes int) (*decomp, error) {
	t.campaign++
	root := t.begin("campaign", 0)
	d := &decomp{replayNs: map[string]float64{}, opMachines: map[string]float64{}}
	progs, err := decompPrepare(t, root, c, lanes)
	if err != nil {
		return nil, err
	}
	if c.plan.Stream != nil {
		err = d.stream(t, root, c, progs, families)
	} else {
		err = d.materialized(t, root, c, progs, families)
	}
	if err != nil {
		return nil, err
	}
	t.end(root)
	d.layers = t.selfTimes(t.campaign)
	for name := range groupSpans {
		delete(d.layers, name)
	}
	return d, nil
}

// layerSum is the campaign's time attributed to layers.
func (d *decomp) layerSum() time.Duration {
	var total time.Duration
	for _, v := range d.layers {
		total += v
	}
	return total
}

// decompPrepare mirrors stage preparation: a program-cache lookup per
// stage, or record and compile for a cold campaign.
func decompPrepare(t *tracer, parent int, c *campaign, lanes int) ([]*sim.Program, error) {
	id := t.begin("coverage.prepare", parent)
	defer t.end(id)
	p := c.plan
	if p.Stream == nil {
		sim.Batchable(p.Universe.Faults)
	}
	progs := make([]*sim.Program, len(p.Runners))
	for i, r := range p.Runners {
		mem := p.Memory()
		if !c.cold {
			tk, ok := r.(coverage.TraceKeyer)
			if !ok {
				return nil, fmt.Errorf("runner %s has no trace key", r.Name())
			}
			key := sim.ProgramKey{Runner: tk.TraceKey(), Size: mem.Size(), Width: mem.Width(), Lanes: lanes, InitHash: sim.InitHash(mem)}
			if e, hit := p.Cache.Get(key); hit {
				progs[i] = e.Prog
				continue
			}
		}
		tr, _, _ := sim.Record(mem, r.Run)
		prog, err := sim.Compile(tr, lanes)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", r.Name(), err)
		}
		progs[i] = prog
	}
	return progs, nil
}

// replay replays reps through prog in program-width batches, writing
// each representative's verdict to rd.
func (d *decomp) replay(prog *sim.Program, a *sim.Arena, reps []fault.Fault, rd []bool, mask []uint64, family string) error {
	bf := prog.BatchFaults()
	for lo := 0; lo < len(reps); lo += bf {
		hi := min(lo+bf, len(reps))
		if err := prog.ReplayInto(a, reps[lo:hi], mask); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			j := i - lo
			rd[i] = mask[j>>6]>>(uint(j)&63)&1 == 1
		}
		d.batchSlots += bf
	}
	d.reps += len(reps)
	d.opMachines[family] += float64(prog.Ops()) * float64(len(reps))
	return nil
}

// accum is a stage's fold target, as an unordered sink's worker keeps it.
type accum struct {
	bits                 *fault.BitSet
	total, det, newFound []int // per class
}

func newAccum() *accum {
	nc := len(fault.Classes())
	return &accum{bits: fault.NewBitSet(0), total: make([]int, nc), det: make([]int, nc), newFound: make([]int, nc)}
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// stream is the streaming executor's decomposition, with the unordered
// sink's fold: each chunk folds into a worker accumulator merged into the
// session once per stage.  A checkpointing session's ordered sink and
// writes are not decomposed; (c) times the checkpoint calls, and on
// cf-durable coverage.residual_frac holds their share of the run.
func (d *decomp) stream(t *tracer, root int, c *campaign, progs []*sim.Program, families []string) error {
	p := c.plan
	src := p.Stream.Source
	count, _ := src.Count()
	cum := fault.NewBitSet(count)
	nc := len(fault.Classes())
	classTotal, classDet := make([]int, nc), make([]int, nc)
	chunk := sim.DefaultChunk
	buf, idx := make([]fault.Fault, chunk), make([]int, chunk)
	det, rd := make([]bool, chunk), make([]bool, chunk)
	arenas := &sim.ArenaPool{}
	universeN := -1
	for si, r := range p.Runners {
		stage := t.begin("coverage.stage", root)
		prog := progs[si]
		sum := prog.Summary()
		var drop *fault.BitSet
		if p.Drop && cum.Count() > 0 {
			drop = cum.Clone()
		}
		a := arenas.Get(prog)
		mask := make([]uint64, prog.LaneWords())
		acc := newAccum()
		src.Reset()
		base := 0
		for more := true; more; {
			id := t.begin("fault.next", stage)
			var n int
			n, more = src.Next(buf)
			t.end(id)

			id = t.begin("sim.drop_filter", stage)
			faults, ids := buf[:n], idx[:0]
			if drop != nil {
				kept := faults[:0]
				for i, f := range faults {
					if !drop.Get(base + i) {
						kept = append(kept, f)
						ids = append(ids, base+i)
					}
				}
				faults = kept
			} else {
				for i := range faults {
					ids = append(ids, base+i)
				}
			}
			t.end(id)

			dd := det[:len(faults)]
			if len(faults) > 0 {
				id = t.begin("fault.collapse", stage)
				col := fault.Collapse(faults, &sum)
				t.end(id)
				id = t.begin("sim.replay", stage)
				err := d.replay(prog, a, col.Reps, rd, mask, families[si])
				d.replayNs[families[si]] += float64(t.end(id).Nanoseconds())
				if err != nil {
					return err
				}
				id = t.begin("fault.expand", stage)
				col.ExpandInto(dd, rd[:len(col.Reps)])
				t.end(id)
				d.presented += len(faults)
			}

			id = t.begin("coverage.fold", stage)
			for i, f := range faults {
				cl := int(f.Class())
				acc.total[cl]++
				if dd[i] {
					acc.det[cl]++
					u := ids[i]
					if !cum.Get(u) {
						acc.newFound[cl]++
					}
					acc.bits.Set(u)
				}
			}
			t.end(id)
			base += n
		}
		arenas.Put(a)

		id := t.begin("coverage.merge", stage)
		cum.Or(acc.bits)
		for cl := 0; cl < nc; cl++ {
			if universeN < 0 {
				classTotal[cl] += acc.total[cl]
			}
			classDet[cl] += acc.newFound[cl]
		}
		t.end(id)
		if universeN < 0 {
			universeN = sumInts(acc.total)
		}
		d.tally.Stages = append(d.tally.Stages, stageTally{Runner: r.Name(), Entered: sumInts(acc.total),
			Detected: sumInts(acc.det), Survivors: universeN - cum.Count()})
		t.end(stage)
	}
	d.tally.Total, d.tally.Detected = universeN, cum.Count()
	for cl := 0; cl < nc; cl++ {
		if classTotal[cl] > 0 {
			d.tally.Classes = append(d.tally.Classes, classTally{fault.Class(cl).String(), classTotal[cl], classDet[cl]})
		}
	}
	return nil
}

// materialized is the materialized executor's decomposition: per stage
// CollapseView over the whole view, replay of the representatives,
// expansion, and the merge of the verdicts into the session tallies.
func (d *decomp) materialized(t *tracer, root int, c *campaign, progs []*sim.Program, families []string) error {
	p := c.plan
	if p.Drop {
		return errors.New("decomposition of a dropping materialized session is not implemented")
	}
	faults := p.Universe.Faults
	n := len(faults)
	cum := make([]bool, n)
	cumDetected := 0
	arenas := &sim.ArenaPool{}
	for si, r := range p.Runners {
		stage := t.begin("coverage.stage", root)
		prog := progs[si]
		sum := prog.Summary()
		view := fault.Span(faults)
		id := t.begin("fault.collapse", stage)
		col := fault.CollapseView(view, &sum)
		t.end(id)

		id = t.begin("sim.replay", stage)
		a := arenas.Get(prog)
		rd := make([]bool, len(col.Reps))
		err := d.replay(prog, a, col.Reps, rd, make([]uint64, prog.LaneWords()), families[si])
		arenas.Put(a)
		d.replayNs[families[si]] += float64(t.end(id).Nanoseconds())
		if err != nil {
			return err
		}

		id = t.begin("fault.expand", stage)
		det := make([]bool, n)
		col.ExpandInto(det, rd)
		t.end(id)
		d.presented += n

		id = t.begin("coverage.merge", stage)
		byClass := map[fault.Class]coverage.ClassStat{}
		detected := 0
		for i := 0; i < view.Len(); i++ {
			cs := byClass[view.At(i).Class()]
			cs.Total++
			if det[i] {
				cs.Detected++
				detected++
				if u := view.Index(i); !cum[u] {
					cum[u] = true
					cumDetected++
				}
			}
			byClass[view.At(i).Class()] = cs
		}
		t.end(id)
		d.tally.Stages = append(d.tally.Stages, stageTally{r.Name(), n, detected, n - cumDetected})
		t.end(stage)
	}
	id := t.begin("coverage.merge", root)
	byClass := map[fault.Class]coverage.ClassStat{}
	for i, f := range faults {
		cs := byClass[f.Class()]
		cs.Total++
		if cum[i] {
			cs.Detected++
		}
		byClass[f.Class()] = cs
	}
	t.end(id)
	d.tally.Total, d.tally.Detected = n, cumDetected
	for _, cl := range fault.Classes() {
		if cs, ok := byClass[cl]; ok {
			d.tally.Classes = append(d.tally.Classes, classTally{cl.String(), cs.Total, cs.Detected})
		}
	}
	return nil
}

// probeFamily is a small fixed campaign hosting one kernel family, so a
// traced run reports every family's replay cost even on workloads that
// do not run it.
func probeFamily(family string) (coverage.Runner, func() ram.Memory, []fault.Fault) {
	bom := func() ram.Memory { return ram.NewBOM(256) }
	wom := func() ram.Memory { return ram.NewWOM(64, 4) }
	cf := func() []fault.Fault { return fault.Collect(fault.SubSource(fault.FullCouplingSource(256), 0, 8192)) }
	std := func() []fault.Fault { return fault.StandardUniverse(64, 4, 64, 1).Faults }
	bomGen, womGen := prt.PaperBOMConfig().Gen, prt.PaperWOMConfig().Gen
	switch family {
	case "width1":
		return coverage.MarchRunner(march.MarchCMinus(), nil), bom, cf()
	case "width1_affine":
		return coverage.PRTRunner(prt.StandardScheme3(bomGen)), bom, cf()
	case "generic":
		return coverage.MarchRunner(march.MarchCMinus(), march.DataBackgrounds(4)), wom, std()
	case "generic_affine":
		return coverage.PRTRunner(prt.StandardScheme3(womGen)), wom, std()
	default:
		return coverage.BISTRunner(prt.StandardScheme3(womGen), 0), wom, std()
	}
}

// probe measures one family's replay cost in ps per op per machine on
// its probe campaign (median of standaloneRepeats replays).
func probe(t *tracer, family string, lanes int) (float64, error) {
	r, mk, faults := probeFamily(family)
	tr, _, _ := sim.Record(mk(), r.Run)
	prog, err := sim.Compile(tr, lanes)
	if err != nil {
		return 0, err
	}
	if got := kernelFamily(tr, prog); got != family {
		return 0, fmt.Errorf("probe for %s runs the %s family", family, got)
	}
	sum := prog.Summary()
	col := fault.Collapse(faults, &sum)
	a := sim.NewArena(prog)
	rd := make([]bool, len(col.Reps))
	mask := make([]uint64, prog.LaneWords())
	var ps []float64
	for k := 0; k < standaloneRepeats; k++ {
		var d decomp
		d.opMachines = map[string]float64{}
		id := t.begin("sim.replay_probe."+family, 0)
		err := d.replay(prog, a, col.Reps, rd, mask, family)
		dur := t.end(id)
		if err != nil {
			return 0, err
		}
		ps = append(ps, float64(dur.Nanoseconds())*1000/d.opMachines[family])
	}
	return median(ps), nil
}

// shares accumulates the per-worker time split of traced sessions.
type shares struct{ worker, kernel, source, sink float64 }

func (sh *shares) add(s *coverage.Session) {
	for _, st := range s.Stages {
		es := st.Stats
		if es == nil {
			continue
		}
		sh.worker += es.Elapsed.Seconds() * float64(len(es.KernelTime))
		for i := range es.KernelTime {
			sh.kernel += es.KernelTime[i].Seconds()
			sh.source += es.SourceWait[i].Seconds()
			sh.sink += es.SinkWait[i].Seconds()
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run of one workload.  It returns the trace
// file it wrote.
func runTraced(cfg runConfig, want tally, res *workloadResult) (string, error) {
	start := time.Now()
	t := newTracer()
	c, _, err := setup(cfg)
	if err != nil {
		return "", err
	}
	defer c.cleanup()
	lanes := coverage.DefaultLaneWords()
	if cfg.workload == paperEval {
		// The in-process stand-in (E6) has no golden of its own: its
		// campaigns are checked against each other and against the
		// decomposition; the eval children check the whole evaluation.
		s, _, err := c.runOnce(tally{})
		res.attempt(err)
		if err != nil {
			return "", err
		}
		want = sessionTally(s)
	}

	// (c) standalone timing.
	families, err := standalone(t, c, lanes, res)
	if err != nil {
		return "", err
	}
	sourceAndUniverse(t, c, res)
	if err := checkpointCalls(t, c, cfg, want, res); err != nil {
		return "", err
	}

	// (a) decomposition, alternated with single-worker Plan.Runs.
	single := *c
	single.plan.Workers = 1
	single.plan.Checkpoint = nil
	if c.plan.Checkpoint != nil {
		cp := *c.plan.Checkpoint
		cp.Path += ".single"
		single.plan.Checkpoint = &cp
	}
	var decomps []*decomp
	var singles []float64
	runSingle := func() {
		t.campaign++
		id := t.begin("coverage.plan_run.1worker", 0)
		_, wall, err := single.runOnce(want)
		t.end(id)
		res.attempt(err)
		singles = append(singles, wall.Seconds())
	}
	for k := 0; k < decompRepeats; k++ {
		// Alternate which of the pair runs first, so a drift in host
		// speed does not favour one side.
		if k%2 == 1 {
			runSingle()
		}
		d, err := decompose(t, c, families, lanes)
		if err == nil && !d.tally.equal(want) {
			err = errors.New("decomposed campaign tallies differ from the reference")
		}
		res.attempt(err)
		if err != nil {
			return "", err
		}
		decomps = append(decomps, d)
		if k%2 == 0 {
			runSingle()
		}
	}
	layerMedian := func(f func(d *decomp) float64) float64 {
		xs := make([]float64, len(decomps))
		for i, d := range decomps {
			xs[i] = f(d)
		}
		return median(xs)
	}
	layer := func(name string) func(d *decomp) float64 {
		return func(d *decomp) float64 { return float64(d.layers[name].Nanoseconds()) }
	}
	presentedF := func(d *decomp) float64 { return float64(d.presented) }
	res.set("fault.collapse_ns_per_fault", layerMedian(func(d *decomp) float64 { return layer("fault.collapse")(d) / presentedF(d) }), nil)
	res.set("fault.expand_ns_per_fault", layerMedian(func(d *decomp) float64 { return layer("fault.expand")(d) / presentedF(d) }), nil)
	res.set("fault.collapse_ratio", float64(decomps[0].reps)/float64(decomps[0].presented), nil)
	res.set("sim.batch_fill", float64(decomps[0].reps)/float64(decomps[0].batchSlots), nil)
	res.set("coverage.merge_s", layerMedian(layer("coverage.merge"))/1e9, nil)
	// The two runs of a pair follow each other, so they see the same host
	// speed, which drifts between pairs: the residual is the median over
	// pairs.
	residuals := make([]float64, len(decomps))
	for i, d := range decomps {
		residuals[i] = 1 - d.layerSum().Seconds()/singles[i]
	}
	res.set("coverage.residual_frac", median(residuals), residuals)
	entered := 0
	for _, st := range want.Stages {
		entered += st.Entered
	}
	res.set("coverage.survivor_frac", float64(entered)/float64(len(want.Stages)*want.Total), nil)
	for _, f := range replayFamilies {
		if decomps[0].opMachines[f.name] > 0 {
			res.set("sim.replay_ps_per_op_machine."+f.name, layerMedian(func(d *decomp) float64 {
				return d.replayNs[f.name] * 1000 / d.opMachines[f.name]
			}), nil)
			continue
		}
		ps, err := probe(t, f.name, lanes)
		if err != nil {
			return "", err
		}
		res.set("sim.replay_ps_per_op_machine."+f.name, ps, nil)
	}

	// (b) traced 2-worker campaigns paired with untraced ones, alternating
	// which of the pair runs first.
	var plain, traced, prepares []float64
	var proc procDelta
	var sh shares
	var hits, lookups float64
	var writes []float64
	runPlain := func() error {
		p0 := readProc()
		s, wall, err := c.runOnce(want)
		proc.add(p0, readProc())
		res.attempt(err)
		if err != nil {
			return err
		}
		plain = append(plain, wall.Seconds())
		var elapsed time.Duration
		for _, st := range s.Stages {
			elapsed += st.Stats.Elapsed
			hits += float64(st.Stats.CacheHits)
			lookups += float64(st.Stats.CacheHits + st.Stats.CacheMisses)
		}
		prepares = append(prepares, (wall - elapsed).Seconds())
		return nil
	}
	runRegistered := func() error {
		reg := telemetry.NewRegistry()
		telemetry.SetActive(reg)
		defer telemetry.SetActive(nil)
		t.campaign++
		id := t.begin("coverage.plan_run", 0)
		s, wall, err := c.runOnce(want)
		t.end(id)
		res.attempt(err)
		if err != nil {
			return err
		}
		traced = append(traced, wall.Seconds())
		sh.add(s)
		writes = append(writes, float64(reg.Snapshot().CheckpointWrites))
		return nil
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for k := 0; k < minTracedPairs || time.Since(start) < budget; k++ {
		first, second := runPlain, runRegistered
		if k%2 == 1 {
			first, second = second, first
		}
		if err := first(); err != nil {
			return "", err
		}
		if err := second(); err != nil {
			return "", err
		}
	}
	overheads := make([]float64, len(traced))
	for i := range traced {
		overheads[i] = traced[i]/plain[i] - 1
	}
	res.set("trace.overhead_frac", median(overheads), overheads)
	res.set("coverage.prepare_s", median(prepares), prepares)
	res.set("sim.kernel_share", ratio(sh.kernel, sh.worker), nil)
	res.set("sim.source_wait_share", ratio(sh.source, sh.worker), nil)
	res.set("sim.sink_wait_share", ratio(sh.sink, sh.worker), nil)
	res.set("sim.cache_hit_frac", ratio(hits, lookups), nil)
	res.set("checkpoint.writes", median(writes), writes)
	res.set("process.cpu_per_wall", proc.cpuPerWall(), nil)
	res.set("process.gc_cpu_frac", proc.gcFrac(), nil)
	res.set("process.alloc_bytes_per_fault", float64(proc.alloc)/float64(entered*len(plain)), nil)

	if err := traceEval(t, cfg, res); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	selfNs := map[string]int64{}
	for name, d := range t.selfTimes(0) {
		selfNs[name] = d.Nanoseconds()
	}
	err = writeJSON(path, struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		SelfNs   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{cfg.workload, cfg.seed, selfNs, t.spans})
	return path, err
}

// traceEval runs the evaluation in fresh processes for the repro.*
// metrics; on paper-eval its process and cache metrics replace the
// in-process stand-in's, since faultcov is what paper-eval times.
func traceEval(t *tracer, cfg runConfig, res *workloadResult) error {
	ecfg := cfg
	if cfg.workload != paperEval {
		ecfg.refPath = "" // only paper-eval resolves the evaluation's reference
	}
	perID := map[string][]float64{}
	var hitFrac, cpu, gc, alloc []float64
	for k := 0; k < evalRepeats; k++ {
		id := t.begin("repro.evaluation", 0)
		ev, err := runEval(ecfg)
		t.end(id)
		if cfg.workload == paperEval {
			res.attempt(err)
		}
		if ev == nil {
			return err
		}
		for name, s := range ev.Experiment {
			perID[name] = append(perID[name], s)
		}
		hitFrac = append(hitFrac, ratio(float64(ev.CacheHits), float64(ev.CacheHits+ev.CacheMisses)))
		cpu = append(cpu, ev.CPUPerWall)
		gc = append(gc, ev.GCCPUFrac)
		alloc = append(alloc, float64(ev.AllocBytes)/float64(ev.Presented))
	}
	for _, name := range sortedKeys(perID) {
		res.set("repro.experiment_s."+name, median(perID[name]), perID[name])
	}
	res.set("repro.cache_hit_frac", median(hitFrac), hitFrac)
	if cfg.workload == paperEval {
		res.set("sim.cache_hit_frac", median(hitFrac), hitFrac)
		res.set("process.cpu_per_wall", median(cpu), cpu)
		res.set("process.gc_cpu_frac", median(gc), gc)
		res.set("process.alloc_bytes_per_fault", median(alloc), alloc)
	}
	return nil
}
