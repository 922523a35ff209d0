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

// buildBytesBound caps the heap bytes TestBuildAllocs' set-up
// allocates, about 1.4 MB without the race detector.
const buildBytesBound = 1600 << 10

// allocsConfig is the run both allocation guards measure: XSB under
// SIMT-aware at the ledger's sweep shape.
func allocsConfig() gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload, cfg.Scheduler = "XSB", gpuwalk.SIMTAware
	cfg.Gen.Scale, cfg.Gen.WavefrontsPerCU, cfg.Gen.InstrsPerWavefront = 0.05, 4, 16
	cfg.Gen.Seed, cfg.Seed = 1, 1
	return cfg
}

// buildSystem generates cfg's trace and builds its System.
func buildSystem(t *testing.T, cfg gpuwalk.Config) *gpu.System {
	t.Helper()
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
	return sys
}

// TestRunAllocs pins the allocation-free translation and data paths:
// instruction, page, MSHR and IOMMU request records are pooled with
// their callbacks bound once, so a run allocates with its peak
// concurrency, not with its accesses. Its run makes 22,336 L1
// data-cache accesses, 21,681 page translations and 10,708 walks, so
// one allocation per line, page or walk breaks the bound. The count is
// deterministic up to a few allocations, as TestConfigHashAllocs' is.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; counted without -race")
	}
	sys := buildSystem(t, allocsConfig())
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

// TestBuildAllocs pins the heap a System's set-up takes: the trace, the
// page census and premapped page table, and the cache tag stores, whose
// 4 MB L2 keeps one 8-byte word per line. A tag store of 16-byte lines
// and per-set slice headers breaks the bound by about 0.5 MB; a map
// census, about 115 KB more than the bitmaps, stays under it.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; counted without -race")
	}
	cfg := allocsConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buildSystem(t, cfg)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes in %d allocations", bytes, after.Mallocs-before.Mallocs)
	if bytes > buildBytesBound {
		t.Fatalf("set-up allocates %d bytes, want <= %d", bytes, buildBytesBound)
	}
}
