package repro

// Benchmark harness: one benchmark per paper artefact (figure /
// quantitative claim), regenerating the corresponding table.  Each
// bench prints its table once (so `go test -bench=.` reproduces the
// whole evaluation) and then measures the underlying computation.
//
// Ablation benches at the bottom time the design alternatives called
// out in DESIGN.md §6.

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/xorsynth"
)

var printOnce sync.Map

func printTable(key string, build func() *report.Table) {
	once, _ := printOnce.LoadOrStore(key, new(sync.Once))
	once.(*sync.Once).Do(func() {
		build().Render(os.Stdout)
		fmt.Println()
	})
}

// --- E1: Figure 1a ---

func BenchmarkFig1aBOMPiIteration(b *testing.B) {
	printTable("fig1a", func() *report.Table { return ExperimentFig1a(16) })
	cfg := prt.PaperBOMConfig()
	mem := ram.NewBOM(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prt.MustRunIteration(cfg, mem)
	}
}

// --- E2: Figure 1b ---

func BenchmarkFig1bWOMPiIteration(b *testing.B) {
	printTable("fig1b", func() *report.Table { return ExperimentFig1b(257) })
	cfg := prt.PaperWOMConfig()
	mem := ram.NewWOM(257, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prt.MustRunIteration(cfg, mem)
	}
}

// --- E3: Figure 2 ---

func BenchmarkFig2DualPortPRT(b *testing.B) {
	printTable("fig2", func() *report.Table { return ExperimentFig2([]int{64, 256, 1024}) })
	cfg := prt.PaperWOMConfig()
	dp := ram.NewDualPort(1024, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prt.RunDualPort(cfg, dp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: §3 single-cell coverage table ---

func BenchmarkTableSingleCellCoverage(b *testing.B) {
	printTable("e4", func() *report.Table { return ExperimentSingleCell(48) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentSingleCell(24)
	}
}

// --- E5: §3 coupling coverage table ---

func BenchmarkTableCouplingCoverage(b *testing.B) {
	printTable("e5", func() *report.Table { return ExperimentCoupling(48) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentCoupling(16)
	}
}

// --- E6: PRT vs March ---

func BenchmarkTablePRTvsMarch(b *testing.B) {
	printTable("e6", func() *report.Table { return ExperimentPRTvsMarch(48, 4) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentPRTvsMarch(16, 4)
	}
}

// --- E7: §4 BIST overhead ---

func BenchmarkTableBISTOverhead(b *testing.B) {
	printTable("e7", func() *report.Table { return ExperimentBISTOverhead() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentBISTOverhead()
	}
}

// --- E8: §3 Markov resolution ---

func BenchmarkTableMarkovResolution(b *testing.B) {
	printTable("e8", func() *report.Table { return ExperimentMarkov() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentMarkov()
	}
}

// --- E9: §2 intra-word, parallel vs random lanes ---

func BenchmarkTableIntraWord(b *testing.B) {
	printTable("e9", func() *report.Table { return ExperimentIntraWord(32, 4) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentIntraWord(8, 4)
	}
}

// --- E10: §3 quality factors ---

func BenchmarkTableQualityFactors(b *testing.B) {
	printTable("e10", func() *report.Table { return ExperimentQualityFactors(48) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentQualityFactors(16)
	}
}

// --- E11: §2 multiplier synthesis ---

func BenchmarkTableMultiplierSynthesis(b *testing.B) {
	printTable("e11", func() *report.Table { return ExperimentMultiplierSynthesis() })
	f := gf.NewField(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xorsynth.SurveyField(f)
	}
}

// --- E12: extension — NPSF coverage ---

func BenchmarkTableNPSF(b *testing.B) {
	printTable("e12", func() *report.Table { return ExperimentNPSF(64, 8) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentNPSF(16, 4)
	}
}

// --- E13: extension — data retention ---

func BenchmarkTableRetention(b *testing.B) {
	printTable("e13", func() *report.Table { return ExperimentRetention(48) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentRetention(16)
	}
}

// --- ablation benches (DESIGN.md §6) ---

// BenchmarkGFMulStrategies compares the log/antilog-table multiply with
// the shift-and-add fallback.
func BenchmarkGFMulStrategies(b *testing.B) {
	f := gf.NewField(8)
	b.Run("table", func(b *testing.B) {
		var acc gf.Elem = 1
		for i := 0; i < b.N; i++ {
			acc = f.Mul(acc|1, 0x53)
		}
		sink = uint64(acc)
	})
	b.Run("shift-add", func(b *testing.B) {
		var acc gf.Elem = 1
		for i := 0; i < b.N; i++ {
			acc = f.MulNoTable(acc|1, 0x53)
		}
		sink = uint64(acc)
	})
}

// BenchmarkLFSRForms compares Fibonacci and Galois bit-LFSR stepping.
func BenchmarkLFSRForms(b *testing.B) {
	for _, form := range []lfsr.Form{lfsr.Fibonacci, lfsr.Galois} {
		b.Run(form.String(), func(b *testing.B) {
			reg := lfsr.MustBit(0x11D, form, 1)
			for i := 0; i < b.N; i++ {
				reg.Step()
			}
			sink = reg.State()
		})
	}
}

// BenchmarkPiIterationThroughput measures cells/second of the walk
// itself across memory sizes.
func BenchmarkPiIterationThroughput(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := prt.PaperWOMConfig()
			mem := ram.NewWOM(n, 4)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				prt.MustRunIteration(cfg, mem)
			}
		})
	}
}

// BenchmarkMarchAlgorithms times the baseline March library.
func BenchmarkMarchAlgorithms(b *testing.B) {
	for _, t := range []march.Test{march.MATSPlus(), march.MarchCMinus(), march.MarchB()} {
		b.Run(t.Name, func(b *testing.B) {
			mem := ram.NewBOM(4096)
			for i := 0; i < b.N; i++ {
				_ = march.Run(t, mem, 0)
			}
		})
	}
}

// BenchmarkCSESynthesis times multiplier synthesis with and without
// common-subexpression elimination.
func BenchmarkCSESynthesis(b *testing.B) {
	f := gf.NewField(8)
	m := f.ConstMulMatrix(0xB7)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = uint64(xorsynth.Naive(m).GateCount())
		}
	})
	b.Run("cse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = uint64(xorsynth.CSE(m).GateCount())
		}
	})
}

// BenchmarkSignatureVsVerify compares the per-run cost of the paper's
// pure signature scheme with the verify/capture-augmented scheme.
func BenchmarkSignatureVsVerify(b *testing.B) {
	gen := prt.PaperWOMConfig().Gen
	full := prt.StandardScheme3(gen)
	sig := full.SignatureOnly()
	mem := ram.NewWOM(4096, 4)
	b.Run("signature", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sig.MustRun(mem)
		}
	})
	b.Run("verify+capture", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = full.MustRun(mem)
		}
	})
}

// BenchmarkCampaign compares the three coverage engines on the
// acceptance workload: bit-oriented SAF+CF campaigns under March C-.
// The oracle re-runs the full algorithm per fault; bitpar replays the
// recorded trace per 64-fault batch, rebuilding the machine array each
// time; compiled lowers the trace once and replays it allocation-free
// over per-worker arenas with width-1 kernels and fault collapsing,
// 512 machines per pass at both sizes (the engine's width rule).
// The 1K size keeps the oracle comparable; the 64K size is the
// production regime (the oracle would take hours there) with coupling
// pairs sampled to bound the universe.  The custom metric is faults
// simulated per second.
func BenchmarkCampaign(b *testing.B) {
	r := coverage.MarchRunner(march.MarchCMinus(), nil)
	for _, bc := range []struct {
		n       int
		pairs   func(n int) []fault.CouplingPair
		engines []coverage.Engine
	}{
		{1024, fault.AdjacentPairs,
			[]coverage.Engine{coverage.EngineOracle, coverage.EngineBitParallel, coverage.EngineCompiled}},
		{65536, func(n int) []fault.CouplingPair { return fault.SamplePairs(n, 1, 2048, 1) },
			[]coverage.Engine{coverage.EngineBitParallel, coverage.EngineCompiled}},
	} {
		n := bc.n
		u := fault.Universe{Name: "saf+cf", Faults: append(
			fault.SingleCellUniverse(n, 1),
			fault.CouplingUniverse(bc.pairs(n))...)}
		mk := func() ram.Memory { return ram.NewBOM(n) }
		for _, engine := range bc.engines {
			b.Run(fmt.Sprintf("n=%d/%s", n, engine), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := coverage.CampaignEngine(r, u, mk, 0, engine)
					sink = uint64(res.Detected)
				}
				b.ReportMetric(float64(u.Len())*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
			})
		}
	}
}

// BenchmarkCampaignPRT measures the same comparison for a pseudo-ring
// scheme, whose recurrence writes exercise the affine replay path.
func BenchmarkCampaignPRT(b *testing.B) {
	const n = 256
	u := fault.Universe{Name: "saf+cf", Faults: append(
		fault.SingleCellUniverse(n, 4),
		fault.CouplingUniverse(fault.AdjacentPairs(n))...)}
	mk := func() ram.Memory { return ram.NewWOM(n, 4) }
	r := coverage.PRTRunner(prt.StandardScheme3(prt.PaperWOMConfig().Gen))
	for _, engine := range []coverage.Engine{coverage.EngineOracle, coverage.EngineBitParallel, coverage.EngineCompiled} {
		b.Run(fmt.Sprintf("n=%d/%s", n, engine), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := coverage.CampaignEngine(r, u, mk, 0, engine)
				sink = uint64(res.Detected)
			}
			b.ReportMetric(float64(u.Len())*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
		})
	}
}

// BenchmarkSession measures the campaign session layer on an
// E10-style multi-runner workload: five March algorithms over one
// bit-oriented SAF+CF universe.  "independent" is the pre-session
// structure — back-to-back CampaignEngine runs, each re-recording,
// re-compiling and re-simulating the full universe.  "session" runs
// the same five campaigns as one Plan (shared program cache + arena
// pool, no dropping — results byte-identical to independent runs).
// "session+drop" adds cross-test fault dropping with cheapest-first
// ordering: each fault is simulated only until some test detects it,
// which is where the bulk of the speedup lives.  The custom metric is
// (logical) faults/s over the full universe × runner count, so the
// three modes are directly comparable.
func BenchmarkSession(b *testing.B) {
	const n = 1024
	u := fault.Universe{Name: "saf+cf", Faults: append(
		fault.SingleCellUniverse(n, 1),
		fault.CouplingUniverse(fault.AdjacentPairs(n))...)}
	mk := func() ram.Memory { return ram.NewBOM(n) }
	runners := []coverage.Runner{
		coverage.MarchRunner(march.MATSPlus(), nil),
		coverage.MarchRunner(march.MarchX(), nil),
		coverage.MarchRunner(march.MarchY(), nil),
		coverage.MarchRunner(march.MarchCMinus(), nil),
		coverage.MarchRunner(march.MarchB(), nil),
	}
	logical := float64(u.Len() * len(runners))
	b.Run(fmt.Sprintf("n=%d/independent", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var det int
			for _, r := range runners {
				res := coverage.CampaignEngine(r, u, mk, 0, coverage.EngineCompiled)
				det += res.Detected
			}
			sink = uint64(det)
		}
		b.ReportMetric(logical*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
	})
	session := func(drop bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := coverage.Plan{
					Runners: runners, Universe: u, Memory: mk,
					Engine: coverage.EngineCompiled, Drop: drop,
					Order: coverage.OrderCheapestFirst,
					Cache: coverage.SharedProgramCache(),
				}
				sink = uint64(p.Run().Cumulative.Detected)
			}
			b.ReportMetric(logical*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
		}
	}
	b.Run(fmt.Sprintf("n=%d/session", n), session(false))
	b.Run(fmt.Sprintf("n=%d/session+drop", n), session(true))
}

// BenchmarkStreamingCampaign measures the bounded-memory streaming
// path: an exhaustive coupling universe (every ordered cell pair of a
// 256-cell bit-oriented array × 12 sub-types = 783,360 instances,
// fault.FullCouplingSource) pulled through the compiled engine in
// chunks.  Resident fault storage is O(chunk × workers) — the
// memory-guard test in internal/coverage asserts it — so the chunk
// sweep shows chunk size is a memory knob, not a throughput knob.
// The custom metric is faults simulated per second.
func BenchmarkStreamingCampaign(b *testing.B) {
	const n = 256
	src := fault.FullCouplingSource(n)
	count, _ := src.Count()
	st := &fault.Stream{Name: "cf-exhaustive", Source: src}
	mk := func() ram.Memory { return ram.NewBOM(n) }
	r := coverage.MarchRunner(march.MarchCMinus(), nil)
	for _, chunk := range []int{512, 8192} {
		b.Run(fmt.Sprintf("n=%d/chunk=%d", n, chunk), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := coverage.CampaignStream(r, st, mk, 0, chunk)
				sink = uint64(res.Detected)
			}
			b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
		})
	}
}

// BenchmarkCampaignParallel gates parallel scaling on the streaming
// compiled path: the exhaustive coupling universe of
// BenchmarkStreamingCampaign swept across worker counts (a 256-cell
// memory, so 64 machines per pass).  Two metrics per sub-bench:
// faults/s (the scaling curve — workers=4 should hold ≥0.6× linear
// over workers=1 on a ≥4-core machine) and sinkwait/worker, the mean
// fraction of a worker's wall time spent blocked acquiring the lock of
// the session's completion-frontier fold.  The 16- and 32-worker rows
// oversubscribe any small machine on purpose: they show how far the
// one lock is from becoming the bottleneck, and the CI per-benchmark
// regression gate holds their faults/s.
func BenchmarkCampaignParallel(b *testing.B) {
	const n = 256
	src := fault.FullCouplingSource(n)
	count, _ := src.Count()
	st := &fault.Stream{Name: "cf-exhaustive", Source: src}
	mk := func() ram.Memory { return ram.NewBOM(n) }
	r := coverage.MarchRunner(march.MarchCMinus(), nil)
	workerSet := []int{1, 2, 4, 16, 32}
	if g := runtime.GOMAXPROCS(0); !slices.Contains(workerSet, g) {
		workerSet = append(workerSet, g)
	}
	for _, workers := range workerSet {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
			// Every stage returns its per-worker sink-wait split, so no
			// registry is needed to report it.
			b.ReportAllocs()
			var shareSum float64
			var shareN int
			for i := 0; i < b.N; i++ {
				p := coverage.Plan{
					Runners: []coverage.Runner{r}, Stream: st,
					Memory: mk, Workers: workers,
					Engine: coverage.EngineCompiled, Cache: coverage.SharedProgramCache(),
				}
				res := p.Run().Results[0]
				sink = uint64(res.Detected)
				for _, s := range res.Stats.SinkWaitShares() {
					shareSum += s
					shareN++
				}
			}
			b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
			if shareN > 0 {
				b.ReportMetric(shareSum/float64(shareN), "sinkwait/worker")
			}
		})
	}
}

// BenchmarkTelemetryOverhead measures the telemetry's cost on the
// hottest path: the compiled engine over the 1K acceptance universe.
// Both sub-benches time every chunk into the workers' own stage
// totals; "off" runs with no registry attached (one nil check per
// chunk flush), and "on" attaches one as faultcov -progress does, with
// a 1-s progress callback that discards its samples, so every chunk
// also flushes its counts into the registry's atomic process counters
// and every frontier advance of the session's fold offers a sample.
// The two should stay within about 2%, but a single pass cannot show
// that: compare the medians of -count 10 runs of each.  CI's benchjson
// gate on its one 1x pass only catches large drops.
func BenchmarkTelemetryOverhead(b *testing.B) {
	const n = 1024
	u := fault.Universe{Name: "saf+cf", Faults: append(
		fault.SingleCellUniverse(n, 1),
		fault.CouplingUniverse(fault.AdjacentPairs(n))...)}
	mk := func() ram.Memory { return ram.NewBOM(n) }
	r := coverage.MarchRunner(march.MarchCMinus(), nil)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := coverage.CampaignEngine(r, u, mk, 0, coverage.EngineCompiled)
			sink = uint64(res.Detected)
		}
		b.ReportMetric(float64(u.Len())*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
	}
	b.Run(fmt.Sprintf("n=%d/off", n), func(b *testing.B) {
		telemetry.SetActive(nil)
		run(b)
	})
	b.Run(fmt.Sprintf("n=%d/on", n), func(b *testing.B) {
		reg := telemetry.NewRegistry()
		reg.OnProgress(time.Second, func(telemetry.Progress) {})
		telemetry.SetActive(reg)
		defer telemetry.SetActive(nil)
		run(b)
	})
}

var sink uint64

// --- E14: ablation — ring vs plain iterations ---

func BenchmarkTableRingMode(b *testing.B) {
	printTable("e14", func() *report.Table { return ExperimentRingMode([]int{64, 255, 257}) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentRingMode([]int{32})
	}
}

// --- E15: ablation — MISR-compressed verify ---

func BenchmarkTableMISRCompression(b *testing.B) {
	printTable("e15", func() *report.Table { return ExperimentMISR(64) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentMISR(24)
	}
}

// --- E16: scaled — BIST signature aliasing ---

func BenchmarkTableMISRAliasing(b *testing.B) {
	printTable("e16", func() *report.Table {
		return ExperimentMISRAliasing([]int{64, 256}, []int{1, 2, 4, 8, 16})
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentMISRAliasing([]int{32}, []int{4})
	}
}

// --- E17: streaming — exhaustive coupling escapes ---

func BenchmarkTableExhaustiveCoupling(b *testing.B) {
	printTable("e17", func() *report.Table { return ExperimentExhaustiveCoupling([]int{48, 96}, 64) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExperimentExhaustiveCoupling([]int{32}, 32)
	}
}

// BenchmarkCampaignObserver measures the signature-observer replay
// path: the E16 BIST workload (π-walk + read-back compressed into a
// 4-bit SISR, detection purely by signature compare) over a
// bit-oriented SAF+CF universe, per engine.  The compiled engine folds
// the 64-machine accumulator difference once per word op, so the
// observer costs O(w) XORs on top of the width-1 kernel.
func BenchmarkCampaignObserver(b *testing.B) {
	const n = 1024
	u := fault.Universe{Name: "saf+cf", Faults: append(
		fault.SingleCellUniverse(n, 1),
		fault.CouplingUniverse(fault.SamplePairs(n, 1, 512, 3))...)}
	mk := func() ram.Memory { return ram.NewBOM(n) }
	r := sisrRunner{w: 4}
	for _, engine := range []coverage.Engine{coverage.EngineOracle, coverage.EngineBitParallel, coverage.EngineCompiled} {
		b.Run(fmt.Sprintf("n=%d/%s", n, engine), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := coverage.CampaignEngine(r, u, mk, 0, engine)
				sink = uint64(res.Detected)
			}
			b.ReportMetric(float64(u.Len())*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
		})
	}
}
