package gpuwalk_test

import (
	"context"
	"testing"

	"gpuwalk"
)

// benchBaseConfig is a small irregular run that simulates in well
// under a second.
func benchBaseConfig(wl string, sched gpuwalk.SchedulerKind) gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = wl
	cfg.Scheduler = sched
	cfg.Gen.Scale = 0.02
	cfg.Gen.WavefrontsPerCU = 2
	cfg.Gen.InstrsPerWavefront = 8
	cfg.Seed = 7
	return cfg
}

// BenchmarkRunCachedWarm measures the per-run cost of a cache hit:
// hashing the config, reading the object, digest-checking it, and
// decoding the result.
func BenchmarkRunCachedWarm(b *testing.B) {
	cache, err := gpuwalk.OpenResultCache(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	cfg := benchBaseConfig("MVT", gpuwalk.FCFS)
	ctx := context.Background()
	if _, _, err := gpuwalk.RunCached(ctx, cache, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := gpuwalk.RunCached(ctx, cache, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !hit {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkConfigHash measures the content address of one config, which
// the gateway computes to route a spec and the backend again to look up
// its result, each once per distinct spec it sees.
func BenchmarkConfigHash(b *testing.B) {
	cfg := benchBaseConfig("MVT", gpuwalk.FCFS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gpuwalk.ConfigHash(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
