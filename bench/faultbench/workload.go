package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/sim"
)

// runConfig is one faultbench invocation's settings for one workload.
type runConfig struct {
	workload   string
	seed       int64
	seconds    float64
	campaigns  int // > 0: exactly this many timed campaigns (tests); else until seconds elapse
	workers    int
	gomaxprocs int
	size       sizes
	trace      bool
	goldenDir  string
	outDir     string
	faultcov   string
	refPath    string
}

// sizes scales the in-process workloads: fullSize is the benchmark,
// toySize the tests' smoke runs.
type sizes struct {
	cfCells    int // BOM cells of the exhaustive coupling universe
	cfSegments int // seeded segments of segmentFaults streamed per campaign
	womCells   int // WOM cells (4-bit words)
	womPairs   int // sampled long-distance coupling pairs
}

var (
	fullSize = sizes{cfCells: 1024, cfSegments: 32, womCells: 256, womPairs: 1024}
	toySize  = sizes{cfCells: 64, cfSegments: 1, womCells: 64, womPairs: 16}
)

const (
	// segmentFaults is one seeded CF segment: one default streaming chunk.
	segmentFaults = sim.DefaultChunk
	// checkpointEvery is cf-durable's cadence: one write per chunk.
	checkpointEvery = 8192
	// primeFaults is the universe prefix a set-up priming runs over.
	primeFaults = 64
	warmups     = 2
)

// campaign is one in-process workload instance built from a seed: the
// plan every timed campaign runs, and what the traced run needs to
// drive the same work one layer at a time.
type campaign struct {
	plan coverage.Plan
	// source enumerates the universe: the streamed one, or the
	// materialized one as a SliceSource.
	source fault.Source
	// buildUniverse rebuilds the universe alone (fault.universe_build_s).
	buildUniverse func()
	// cold campaigns start every run with an empty program cache, as
	// every faultcov invocation does (paper-eval's in-process session).
	cold bool
	dir  string // scratch directory for checkpoints, removed by cleanup
}

func (c *campaign) cleanup() {
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// cfSource streams cfSegments seeded, chunk-aligned segments of the
// exhaustive coupling universe of an n-cell BOM.  Sampling 32 segments
// instead of one contiguous window keeps a campaign's work nearly the
// same for every seed: one window's survivor share after PRT-3 ranges
// from 14% to 22% between seeds, and with it the campaign time.
func cfSource(seed int64, sz sizes) fault.Source {
	full := fault.FullCouplingSource(sz.cfCells)
	n, _ := full.Count()
	picks := rand.New(rand.NewSource(seed)).Perm(n / segmentFaults)[:sz.cfSegments]
	sort.Ints(picks)
	segs := make([]fault.Source, len(picks))
	for i, p := range picks {
		segs[i] = fault.SubSource(full, p*segmentFaults, (p+1)*segmentFaults)
	}
	return fault.ConcatSource(segs...)
}

func cfRunners() []coverage.Runner {
	gen := prt.PaperBOMConfig().Gen
	return []coverage.Runner{
		coverage.PRTRunner(prt.StandardScheme3(gen)),
		coverage.MarchRunner(march.MarchCMinus(), nil),
	}
}

func womRunners() []coverage.Runner {
	bgs := march.DataBackgrounds(4)
	gen := prt.PaperWOMConfig().Gen
	return []coverage.Runner{
		coverage.MarchRunner(march.MATSPlus(), bgs),
		coverage.MarchRunner(march.MarchX(), bgs),
		coverage.MarchRunner(march.MarchCMinus(), bgs),
		coverage.MarchRunner(march.MarchB(), bgs),
		coverage.PRTRunner(prt.StandardScheme3(gen)),
		coverage.PRTRunner(prt.StandardScheme4(gen)),
		coverage.BISTRunner(prt.StandardScheme3(gen), 0),
	}
}

// e6Runners are the algorithms of the evaluation's E6 session
// (repro.ExperimentPRTvsMarch at m=4), paper-eval's in-process stand-in
// for the traced run.
func e6Runners() []coverage.Runner {
	bgs := march.DataBackgrounds(4)
	gen := prt.PaperWOMConfig().Gen
	return []coverage.Runner{
		coverage.MarchRunner(march.MATSPlus(), bgs),
		coverage.MarchRunner(march.MarchX(), bgs),
		coverage.MarchRunner(march.MarchY(), bgs),
		coverage.MarchRunner(march.MarchCMinus(), bgs),
		coverage.MarchRunner(march.MarchA(), bgs),
		coverage.MarchRunner(march.MarchB(), bgs),
		coverage.PRTRunner(prt.StandardScheme3(gen).SignatureOnly()),
		coverage.PRTRunner(prt.StandardScheme3(gen)),
		coverage.PRTRunner(prt.StandardScheme4(gen)),
		coverage.PRTRunner(prt.ExtendedScheme(gen, 2)),
	}
}

// buildCampaign builds cfg's workload from its seed.  paper-eval's
// campaign is the E6 session its traced run drives in-process; its
// timed campaigns are faultcov processes (eval.go).
func buildCampaign(cfg runConfig) (*campaign, error) {
	sz := cfg.size
	c := &campaign{}
	p := coverage.Plan{Workers: cfg.workers, Cache: sim.NewProgramCache()}
	switch cfg.workload {
	case cfStream, cfDurable:
		n := sz.cfCells
		c.source = cfSource(cfg.seed, sz)
		c.buildUniverse = func() { cfSource(cfg.seed, sz) }
		p.Name = cfg.workload
		p.Runners = cfRunners()
		p.Stream = &fault.Stream{Name: "cf-segments", Source: c.source}
		p.Memory = func() ram.Memory { return ram.NewBOM(n) }
		p.Drop = true
		if cfg.workload == cfDurable {
			dir, err := os.MkdirTemp(cfg.outDir, "ckpt-")
			if err != nil {
				return nil, err
			}
			c.dir = dir
			p.Checkpoint = &coverage.CheckpointConfig{
				Path:  filepath.Join(dir, "campaign.fckp"),
				Every: checkpointEvery,
				Label: fmt.Sprintf("faultbench %s seed %d", cfg.workload, cfg.seed),
				Seed:  cfg.seed,
			}
		}
	case womSession, paperEval:
		n, pairs, seed, runners := sz.womCells, sz.womPairs, cfg.seed, womRunners()
		if cfg.workload == paperEval {
			n, pairs, runners = 48, 10, e6Runners()
			c.cold = true
		}
		u := fault.StandardUniverse(n, 4, pairs, seed)
		c.source = fault.SliceSource(u.Faults)
		c.buildUniverse = func() { fault.StandardUniverse(n, 4, pairs, seed) }
		p.Name = cfg.workload
		p.Runners = runners
		p.Universe = u
		p.Memory = func() ram.Memory { return ram.NewWOM(n, 4) }
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	c.plan = p
	return c, nil
}

// setup builds the workload and primes a fresh program cache by running
// the plan over the universe's first primeFaults faults, which records
// and compiles every stage; timed campaigns reuse that cache.  The
// duration is set-up as a user pays it.
func setup(cfg runConfig) (*campaign, time.Duration, error) {
	t0 := time.Now()
	c, err := buildCampaign(cfg)
	if err != nil {
		return nil, 0, err
	}
	p := c.plan
	p.Checkpoint = nil
	if p.Stream != nil {
		p.Stream = &fault.Stream{Name: p.Stream.Name, Source: fault.SubSource(p.Stream.Source, 0, primeFaults)}
	} else {
		p.Universe = fault.Universe{Name: p.Universe.Name, Faults: p.Universe.Faults[:primeFaults]}
	}
	if s := p.Run(); s.Interrupted {
		c.cleanup()
		return nil, 0, errors.New("set-up priming was interrupted")
	}
	return c, time.Since(t0), nil
}

// runOnce runs one campaign and checks its output against want (a zero
// tally skips the comparison).  err is non-nil when the campaign
// panicked, returned Interrupted, or produced other tallies; s and wall
// are set whenever the campaign returned.
func (c *campaign) runOnce(want tally) (s *coverage.Session, wall time.Duration, err error) {
	p := c.plan
	if c.cold {
		p.Cache = sim.NewProgramCache()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign panicked: %v", r)
		}
	}()
	t0 := time.Now()
	s = p.Run()
	wall = time.Since(t0)
	return s, wall, c.check(s, want)
}

func (c *campaign) check(s *coverage.Session, want tally) error {
	if s.Interrupted {
		return errors.New("campaign returned Interrupted")
	}
	if want.Stages != nil && !sessionTally(s).equal(want) {
		return errors.New("campaign tallies differ from the reference")
	}
	if cp := c.plan.Checkpoint; cp != nil {
		st, err := checkpoint.Load(cp.Path)
		if err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		t, err := checkpointTally(st)
		if err != nil {
			return err
		}
		if want.Stages != nil && !t.equal(want) {
			return errors.New("final checkpoint tallies differ from the reference")
		}
	}
	return nil
}

// presented is the campaign's work: faults presented, summed over
// stages.
func presented(s *coverage.Session) int {
	n := 0
	for _, st := range s.Stages {
		n += st.Entered
	}
	return n
}

// runInProcess is the untraced run of an in-process workload: set-up,
// warm-up campaigns, then timed campaigns until the time budget is spent,
// each followed by one more set-up, discarded, and a garbage collection.
// Back to back, the set-ups would all fall within one moment of the
// host's speed drift; spread over the run, setup_s samples the same
// stretch of time as the campaigns.
// peak_rss_mb is the median over timed campaigns of the process's peak
// RSS during the campaign; where the kernel cannot reset its high-water
// mark, the parent falls back to this process's lifetime Maxrss.
func runInProcess(cfg runConfig, want tally, res *workloadResult) error {
	c, d, err := setup(cfg)
	if err != nil {
		return err
	}
	defer c.cleanup()
	setups := []float64{d.Seconds()}
	for i := 0; i < warmups; i++ {
		_, _, err := c.runOnce(want)
		res.attempt(err)
	}
	var walls, rates, rss []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; more(cfg, n, deadline); n++ {
		rssErr := resetPeakRSS()
		s, wall, err := c.runOnce(want)
		res.attempt(err)
		if s != nil {
			walls = append(walls, wall.Seconds())
			rates = append(rates, float64(presented(s))/wall.Seconds())
			if mib, err := peakRSSMiB(); rssErr == nil && err == nil {
				rss = append(rss, mib)
			}
		}
		spare, d, err := setup(cfg)
		if err != nil {
			return err
		}
		spare.cleanup()
		setups = append(setups, d.Seconds())
		// Collect the set-up's garbage now, so that it counts neither in
		// the next campaign's time nor in its peak RSS.
		runtime.GC()
	}
	res.setCampaigns(walls, rates)
	res.set("setup_s", median(setups), setups)
	if len(rss) > 0 {
		res.set("peak_rss_mb", median(rss), rss)
	}
	return nil
}

// more reports whether the timed loop runs campaign n: a fixed count
// when the config has one, else until the deadline (at least one).
func more(cfg runConfig, n int, deadline time.Time) bool {
	if cfg.campaigns > 0 {
		return n < cfg.campaigns
	}
	return n == 0 || time.Now().Before(deadline)
}
