// Command gpuwalkdiff runs the same workload under two page-walk
// schedulers and prints every headline metric side by side — the
// quickest way to see *where* a policy wins (walk count? stalls? TLB
// hit rates? DRAM behaviour?).
//
// Usage:
//
//	gpuwalkdiff -workload MVT -a fcfs -b simt-aware
//	gpuwalkdiff -workload GEV -a sjf -b simt-aware -walkers 16
package main

import (
	"flag"
	"fmt"
	"os"

	"gpuwalk"
	"gpuwalk/internal/report"
)

func main() {
	var (
		wl      = flag.String("workload", "MVT", "benchmark abbreviation")
		a       = flag.String("a", "fcfs", "baseline scheduler")
		b       = flag.String("b", "simt-aware", "comparison scheduler")
		scale   = flag.Float64("scale", 0.125, "footprint scale vs Table II")
		wfs     = flag.Int("wavefronts", 0, "wavefronts per CU (0 = default)")
		instrs  = flag.Int("instrs", 0, "memory instructions per wavefront (0 = default)")
		walkers = flag.Int("walkers", 8, "IOMMU page table walkers")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
	)
	flag.Parse()

	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = *wl
	cfg.Gen.Scale = *scale
	cfg.Gen.WavefrontsPerCU = *wfs
	cfg.Gen.InstrsPerWavefront = *instrs
	cfg.Gen.Seed = *seed
	cfg.Seed = *seed
	cfg.IOMMU.Walkers = *walkers

	base, test, speedup, err := gpuwalk.Compare(cfg,
		gpuwalk.SchedulerKind(*a), gpuwalk.SchedulerKind(*b))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpuwalkdiff: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s: %s -> %s speedup %.3fx\n\n", *wl, *a, *b, speedup)
	report.WriteDiff(os.Stdout, base, test)
}
