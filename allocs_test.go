package gpuwalk_test

import (
	"runtime"
	"testing"

	"gpuwalk"
	"gpuwalk/internal/gpu"
)

// runAllocBound caps the heap allocations of TestRunAllocs' run, which
// makes about 9,000 without the race detector.
const runAllocBound = 10000

// TestRunAllocs pins the allocation-free translation and data paths:
// instruction, page, MSHR and IOMMU request records are pooled with
// their callbacks bound once, so a run allocates with its peak
// concurrency, not with its accesses. Its run, XSB under SIMT-aware at
// the ledger's sweep shape, makes 22,336 L1 data-cache accesses, 21,681
// page translations and 10,708 walks, so one allocation per line, page
// or walk breaks the bound. The count is deterministic up to a few
// allocations, as TestConfigHashAllocs' is.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; counted without -race")
	}
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload, cfg.Scheduler = "XSB", gpuwalk.SIMTAware
	cfg.Gen.Scale, cfg.Gen.WavefrontsPerCU, cfg.Gen.InstrsPerWavefront = 0.05, 4, 16
	cfg.Gen.Seed, cfg.Seed = 1, 1
	tr, err := gpuwalk.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gpu.NewSystem(gpu.Params{
		GPU: cfg.GPU, DRAM: cfg.DRAM, IOMMU: cfg.IOMMU,
		SchedKind: cfg.Scheduler, Seed: cfg.Seed,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// One P, as testing.AllocsPerRun uses, keeps other goroutines'
	// allocations out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sys.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations, %d events, %d L1D accesses, %d translations",
		allocs, sys.Engine().Dispatched(), res.L1D.Lookups.Total, res.Translations)
	if allocs > runAllocBound {
		t.Fatalf("run allocates %d times, want <= %d", allocs, runAllocBound)
	}
}
