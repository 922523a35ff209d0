package gpuwalk_test

import (
	"testing"

	"gpuwalk"
	"gpuwalk/internal/gpu"
)

// TestSectionVIWavefrontSched checks Section VI's claim that the walk
// scheduler's win does not depend on the CU's wavefront scheduler: on
// BIC at the benchmarks' shape, SIMT-aware beats FCFS by more than 10%
// under round-robin, oldest-first and youngest-first issue, on each of
// seeds 1-3. EXPERIMENTS.md records the measured speedups.
func TestSectionVIWavefrontSched(t *testing.T) {
	if raceEnabled {
		t.Skip("checks no concurrency, and its 18 runs are slow under -race")
	}
	for _, pol := range []gpu.WavefrontSched{gpu.WFRoundRobin, gpu.WFOldest, gpu.WFYoungest} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := gpuwalk.DefaultConfig()
			cfg.Workload = "BIC"
			cfg.GPU.WavefrontSched = pol
			cfg.Gen = benchGen()
			cfg.Gen.Seed, cfg.Seed = seed, seed
			_, _, speedup, err := gpuwalk.Compare(cfg, gpuwalk.FCFS, gpuwalk.SIMTAware)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s seed %d: SIMT-aware over FCFS %.3f", pol, seed, speedup)
			if speedup <= 1.10 {
				t.Errorf("%s seed %d: SIMT-aware over FCFS %.3f, want > 1.10", pol, seed, speedup)
			}
		}
	}
}
