// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index), plus ablation benches
// for the design choices. The hot structures' micro-benchmarks run in
// bench/ (micro.*) and, for the scheduler, in internal/core.
//
// Figure benches run the corresponding experiment at a reduced scale per
// iteration and report the headline metric of that figure (speedup,
// normalized ratio, ...) via b.ReportMetric, so `go test -bench=.`
// doubles as a results table.
package gpuwalk_test

import (
	"testing"

	"gpuwalk"
	"gpuwalk/internal/experiments"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/tlb"
	"gpuwalk/internal/workload"
)

// benchGen is the reduced scale used by the figure benches.
func benchGen() workload.GenConfig {
	return workload.GenConfig{
		WavefrontsPerCU:    3,
		InstrsPerWavefront: 10,
		Scale:              0.0625,
		Seed:               1,
	}
}

func newBenchSuite() *experiments.Suite {
	return experiments.NewSuite(benchGen(), 1)
}

// --- Tables -----------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := gpuwalk.DefaultConfig().GPU.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	gen := benchGen()
	for i := 0; i < b.N; i++ {
		for _, g := range workload.Registry() {
			tr := g.Generate(gen)
			if tr.Instructions() == 0 {
				b.Fatal("empty trace")
			}
		}
	}
}

// --- Figures ----------------------------------------------------------

func BenchmarkFig02(b *testing.B) {
	var last []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	var fcfs, simt []float64
	for _, r := range last {
		fcfs = append(fcfs, r.FCFS)
		simt = append(simt, r.SIMTAware)
	}
	b.ReportMetric(experiments.GeoMean(fcfs), "fcfs/random")
	b.ReportMetric(experiments.GeoMean(simt), "simt/random")
}

func BenchmarkFig03(b *testing.B) {
	var frac116 float64
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		frac116 = rows[0].Fractions[0]
	}
	b.ReportMetric(frac116, "MVT-frac-1-16")
}

func BenchmarkFig05(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		mean = 0
		for _, r := range rows {
			mean += r.Fraction
		}
		mean /= float64(len(rows))
	}
	b.ReportMetric(mean, "interleaved-frac")
}

func BenchmarkFig06(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		mean = 0
		for _, r := range rows {
			mean += r.Last
		}
		mean /= float64(len(rows))
	}
	b.ReportMetric(mean, "last/first")
}

// ratioBench runs one of the Fig 8-12 family and reports the irregular
// geometric mean.
func ratioBench(b *testing.B, f func(*experiments.Suite) ([]experiments.RatioRow, error), metric string) {
	b.Helper()
	var rows []experiments.RatioRow
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		var err error
		rows, err = f(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var irr []float64
	for _, r := range rows {
		if r.Irregular {
			irr = append(irr, r.Value)
		}
	}
	b.ReportMetric(experiments.GeoMean(irr), metric)
}

func BenchmarkFig08(b *testing.B) {
	ratioBench(b, (*experiments.Suite).Fig8, "speedup")
}

func BenchmarkFig09(b *testing.B) {
	ratioBench(b, (*experiments.Suite).Fig9, "norm-stalls")
}

func BenchmarkFig10(b *testing.B) {
	ratioBench(b, (*experiments.Suite).Fig10, "norm-gap")
}

func BenchmarkFig11(b *testing.B) {
	ratioBench(b, (*experiments.Suite).Fig11, "norm-walks")
}

func BenchmarkFig12(b *testing.B) {
	ratioBench(b, (*experiments.Suite).Fig12, "norm-wavefronts")
}

// sensBench runs one sensitivity variant and reports mean speedup.
func sensBench(b *testing.B, v experiments.SensitivityVariant) {
	b.Helper()
	var rows []experiments.SensitivityRow
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		var err error
		rows, err = s.Sensitivity([]experiments.SensitivityVariant{v})
		if err != nil {
			b.Fatal(err)
		}
	}
	var vals []float64
	for _, r := range rows {
		vals = append(vals, r.Speedup)
	}
	b.ReportMetric(experiments.GeoMean(vals), "speedup")
}

func BenchmarkFig13A(b *testing.B) { sensBench(b, experiments.Fig13Variants()[0]) }
func BenchmarkFig13B(b *testing.B) { sensBench(b, experiments.Fig13Variants()[1]) }
func BenchmarkFig13C(b *testing.B) { sensBench(b, experiments.Fig13Variants()[2]) }
func BenchmarkFig14A(b *testing.B) { sensBench(b, experiments.Fig14Variants()[0]) }
func BenchmarkFig14B(b *testing.B) { sensBench(b, experiments.Fig14Variants()[1]) }

// --- Ablations --------------------------------------------------------

// BenchmarkAblationPolicy compares the two halves of the SIMT-aware
// scheduler (SJF-only and batch-only) against the full policy on MVT.
func BenchmarkAblationPolicy(b *testing.B) {
	for _, kind := range []gpuwalk.SchedulerKind{
		gpuwalk.FCFS, gpuwalk.SJFOnly, gpuwalk.BatchOnly, gpuwalk.SIMTAware,
	} {
		b.Run(string(kind), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := gpuwalk.DefaultConfig()
				cfg.Workload = "MVT"
				cfg.Scheduler = kind
				cfg.Gen = benchGen()
				res, err := gpuwalk.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationPWCGuard measures the paper's 2-bit-counter PWC
// replacement protection on and off.
func BenchmarkAblationPWCGuard(b *testing.B) {
	for _, guard := range []bool{true, false} {
		name := "guard-off"
		if guard {
			name = "guard-on"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := gpuwalk.DefaultConfig()
				cfg.Workload = "GEV"
				cfg.Scheduler = gpuwalk.SIMTAware
				cfg.IOMMU.PWC.CounterGuard = guard
				cfg.Gen = benchGen()
				res, err := gpuwalk.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationVPNMerge measures coalescing duplicate same-VPN walks
// in the IOMMU buffer (off in the paper's hardware) on and off.
func BenchmarkAblationVPNMerge(b *testing.B) {
	for _, merge := range []bool{false, true} {
		name := "merge-off"
		if merge {
			name = "merge-on"
		}
		b.Run(name, func(b *testing.B) {
			var walks uint64
			for i := 0; i < b.N; i++ {
				cfg := gpuwalk.DefaultConfig()
				cfg.Workload = "ATX"
				cfg.Scheduler = gpuwalk.FCFS
				cfg.IOMMU.MergeSameVPN = merge
				cfg.Gen = benchGen()
				res, err := gpuwalk.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				walks = res.PageWalks()
			}
			b.ReportMetric(float64(walks), "walks")
		})
	}
}

// BenchmarkAblationAging sweeps the starvation threshold.
func BenchmarkAblationAging(b *testing.B) {
	for _, aging := range []uint64{256, 2048, 1 << 20} {
		b.Run(agingName(aging), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := gpuwalk.DefaultConfig()
				cfg.Workload = "MVT"
				cfg.Scheduler = gpuwalk.SIMTAware
				cfg.SchedOpts.AgingThreshold = aging
				cfg.Gen = benchGen()
				res, err := gpuwalk.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

func agingName(v uint64) string {
	switch v {
	case 1 << 20:
		return "aging-1M"
	case 2048:
		return "aging-2k"
	default:
		return "aging-256"
	}
}

// BenchmarkDiscussionLargePages runs the Section VI comparison (2 MB
// pages vs 4 KB base pages) and reports the mean large-page speedup.
func BenchmarkDiscussionLargePages(b *testing.B) {
	var rows []experiments.LargePageRow
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		var err error
		rows, err = s.LargePages()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sp []float64
	for _, r := range rows {
		sp = append(sp, r.Speedup2M)
	}
	b.ReportMetric(experiments.GeoMean(sp), "2M-speedup")
}

// BenchmarkExtensionMultiTenant runs the MASK-style co-run comparison.
func BenchmarkExtensionMultiTenant(b *testing.B) {
	var rows []experiments.MultiTenantRow
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		var err error
		rows, err = s.MultiTenant("MVT", "KMN")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scheduler == "simt-aware" {
			b.ReportMetric(r.VictimSlowdown, "victim-slowdown-simt")
		}
	}
}

// BenchmarkExtensionPrefetch measures the next-page translation
// prefetcher. It only ever uses idle walkers, so it engages on the
// regular streaming workloads (whose IOMMU has slack) and is inert on
// the walker-saturated irregular ones.
func BenchmarkExtensionPrefetch(b *testing.B) {
	for _, pf := range []bool{false, true} {
		name := "prefetch-off"
		if pf {
			name = "prefetch-on"
		}
		b.Run(name, func(b *testing.B) {
			var walks, hits uint64
			for i := 0; i < b.N; i++ {
				cfg := gpuwalk.DefaultConfig()
				cfg.Workload = "SSP"
				cfg.IOMMU.PrefetchNext = pf
				cfg.Gen = benchGen()
				res, err := gpuwalk.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				walks = res.PageWalks()
				hits = res.IOMMU.PrefetchHits
			}
			b.ReportMetric(float64(walks), "walks")
			b.ReportMetric(float64(hits), "prefetch-hits")
		})
	}
}

// BenchmarkAblationWavefrontSched measures interaction between the
// CU's wavefront scheduler and the walk scheduler (Section VI).
func BenchmarkAblationWavefrontSched(b *testing.B) {
	for _, pol := range []gpu.WavefrontSched{gpu.WFRoundRobin, gpu.WFOldest, gpu.WFYoungest} {
		b.Run(pol.String(), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cfg := gpuwalk.DefaultConfig()
				cfg.Workload = "BIC"
				cfg.GPU.WavefrontSched = pol
				cfg.Gen = benchGen()
				base, test, sp, err := gpuwalk.Compare(cfg, gpuwalk.FCFS, gpuwalk.SIMTAware)
				if err != nil {
					b.Fatal(err)
				}
				_, _ = base, test
				speedup = sp
			}
			b.ReportMetric(speedup, "simt-speedup")
		})
	}
}

// BenchmarkAblationTLBRepl sweeps the GPU TLB replacement policy.
func BenchmarkAblationTLBRepl(b *testing.B) {
	for _, repl := range []tlb.Replacement{tlb.LRU, tlb.FIFO, tlb.RandomRepl} {
		b.Run(repl.String(), func(b *testing.B) {
			var walks uint64
			for i := 0; i < b.N; i++ {
				cfg := gpuwalk.DefaultConfig()
				cfg.Workload = "MVT"
				cfg.GPU.TLBRepl = repl
				cfg.Gen = benchGen()
				res, err := gpuwalk.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				walks = res.PageWalks()
			}
			b.ReportMetric(float64(walks), "walks")
		})
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	g, err := workload.ByName("XSB")
	if err != nil {
		b.Fatal(err)
	}
	gen := benchGen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen.Seed = uint64(i)
		g.Generate(gen)
	}
}

// BenchmarkEndToEnd measures whole-simulation throughput (simulated
// cycles per wall second) for one MVT run.
func BenchmarkEndToEnd(b *testing.B) {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = "MVT"
	cfg.Gen = benchGen()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := gpuwalk.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}
