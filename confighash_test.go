package gpuwalk_test

import (
	"encoding/json"
	"strings"
	"testing"

	"gpuwalk"
)

func mustHash(t *testing.T, cfg gpuwalk.Config) string {
	t.Helper()
	h, err := gpuwalk.ConfigHash(cfg)
	if err != nil {
		t.Fatalf("ConfigHash: %v", err)
	}
	return h
}

// TestConfigHashDefaultedFields: a config whose Gen fields are zero and
// one whose Gen carries the explicit defaults describe the same run, so
// they must hash identically.
func TestConfigHashDefaultedFields(t *testing.T) {
	implicit := gpuwalk.DefaultConfig()
	implicit.Gen = gpuwalk.GenConfig{} // all defaulted at Generate time

	explicit := gpuwalk.DefaultConfig()
	explicit.Gen = gpuwalk.GenConfig{}.WithDefaults()
	// Generate overrides these two from the GPU config regardless of
	// what the Gen carries; the hash must agree.
	explicit.Gen.CUs = explicit.GPU.CUs
	explicit.Gen.WavefrontWidth = explicit.GPU.WavefrontWidth

	if mustHash(t, implicit) != mustHash(t, explicit) {
		t.Fatal("defaulted and explicit-default configs hash differently")
	}
}

// TestConfigHashJSONFieldOrder: the same config serialized with fields
// in different orders must parse and hash identically.
func TestConfigHashJSONFieldOrder(t *testing.T) {
	a := `{"Workload":"MVT","Seed":7,"Scheduler":"fcfs"}`
	b := `{"Scheduler":"fcfs","Seed":7,"Workload":"MVT"}`
	parse := func(s string) gpuwalk.Config {
		base := gpuwalk.DefaultConfig()
		if err := json.Unmarshal([]byte(s), &base); err != nil {
			t.Fatal(err)
		}
		return base
	}
	if mustHash(t, parse(a)) != mustHash(t, parse(b)) {
		t.Fatal("JSON field order changed the hash")
	}
}

// TestConfigHashSemanticChanges: every semantically meaningful field
// change must change the hash.
func TestConfigHashSemanticChanges(t *testing.T) {
	base := mustHash(t, gpuwalk.DefaultConfig())
	cases := []struct {
		name   string
		mutate func(*gpuwalk.Config)
	}{
		{"workload", func(c *gpuwalk.Config) { c.Workload = "GEV" }},
		{"scheduler", func(c *gpuwalk.Config) { c.Scheduler = gpuwalk.SIMTAware }},
		{"seed", func(c *gpuwalk.Config) { c.Seed = 99 }},
		{"gen seed", func(c *gpuwalk.Config) { c.Gen.Seed = 99 }},
		{"gen scale", func(c *gpuwalk.Config) { c.Gen.Scale = 0.5 }},
		{"l2 tlb entries", func(c *gpuwalk.Config) { c.GPU.L2TLBEntries *= 2 }},
		{"walkers", func(c *gpuwalk.Config) { c.IOMMU.Walkers *= 2 }},
		{"buffer entries", func(c *gpuwalk.Config) { c.IOMMU.BufferEntries *= 2 }},
		{"sched aging", func(c *gpuwalk.Config) { c.SchedOpts.AgingThreshold = 12345 }},
		{"watchdog", func(c *gpuwalk.Config) { c.WatchdogInterval = 1 << 20 }},
		{"fault inject", func(c *gpuwalk.Config) { c.FaultInject.NonPresentRate = 0.5 }},
	}
	hashes := map[string]string{base: "base"}
	for _, tc := range cases {
		cfg := gpuwalk.DefaultConfig()
		tc.mutate(&cfg)
		h := mustHash(t, cfg)
		if prev, dup := hashes[h]; dup {
			t.Errorf("%s: hash collides with %s", tc.name, prev)
		}
		hashes[h] = tc.name
	}
}

// TestConfigHashIgnoresLiveHandles: observability handles are runtime
// objects, not run semantics; attaching them must not change the hash.
func TestConfigHashIgnoresLiveHandles(t *testing.T) {
	plain := gpuwalk.DefaultConfig()
	instrumented := gpuwalk.DefaultConfig()
	instrumented.Obs.Tracer = gpuwalk.NewTracer()
	instrumented.Obs.Metrics = gpuwalk.NewMetrics()
	instrumented.Obs.MetricsEpoch = 500
	if mustHash(t, plain) != mustHash(t, instrumented) {
		t.Fatal("observability handles changed the hash")
	}
}

// TestConfigHashGolden pins the cache keys of the default config and two
// variants. Every result cache is addressed by these keys, so a change
// to the hashed Config shape or to its canonicalization must show up
// here, as a deliberate golden update, rather than as silent cache
// misses.
func TestConfigHashGolden(t *testing.T) {
	simt := gpuwalk.DefaultConfig()
	simt.Scheduler = gpuwalk.SIMTAware
	simt.SchedOpts.AgingThreshold = 4096
	random := gpuwalk.DefaultConfig()
	random.Workload = "GEV"
	random.Scheduler = gpuwalk.Random
	random.SchedOpts.Seed = 7
	random.IOMMU.Walkers = 16
	for _, tc := range []struct {
		name string
		cfg  gpuwalk.Config
		want string
	}{
		{"default", gpuwalk.DefaultConfig(), "91c2bd4f9f72931d43456a11e54acdb8243bed417346ee4304777b1338f87e96"},
		{"simt-aware", simt, "4fdb6e3e94339b360290ffce4e6ee4b359e772d1da257297adcdd78e9c3d848b"},
		{"random/GEV", random, "83135507c7432728110090be1cdd002ed6f47a9cef24a86bd3e8a41ac0ed1d31"},
	} {
		if got := mustHash(t, tc.cfg); got != tc.want {
			t.Errorf("%s: ConfigHash = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestConfigHashAllocs bounds the allocations of one ConfigHash call:
// the gateway and the backend hash every submitted spec, so on an
// all-hit workload the hash is a large share of a job's cost.
func TestConfigHashAllocs(t *testing.T) {
	cfg := gpuwalk.DefaultConfig()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := gpuwalk.ConfigHash(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("ConfigHash allocates %.0f times per call, want <= 40", allocs)
	}
}

func TestConfigHashRejectsCustomScheduler(t *testing.T) {
	cfg := gpuwalk.DefaultConfig()
	cfg.CustomScheduler = sentinelScheduler{}
	if _, err := gpuwalk.ConfigHash(cfg); err != gpuwalk.ErrUncacheable {
		t.Fatalf("err = %v, want ErrUncacheable", err)
	}
}

type sentinelScheduler struct{}

func (sentinelScheduler) Name() string                                             { return "sentinel" }
func (sentinelScheduler) OnArrival(r *gpuwalk.Request, pending []*gpuwalk.Request) {}
func (sentinelScheduler) Select(pending []*gpuwalk.Request) int                    { return 0 }

// FuzzConfigHash feeds arbitrary JSON through ParseConfig and checks
// the hash is a pure, stable function of the parsed config: hashing
// twice agrees, and hashing the config after a save/load round trip
// (which re-orders and re-formats the JSON) agrees too.
func FuzzConfigHash(f *testing.F) {
	f.Add(`{"Workload":"MVT"}`)
	f.Add(`{"Workload":"GEV","Seed":3,"IOMMU":{"Walkers":16}}`)
	f.Add(`{"Scheduler":"simt-aware","Gen":{"Scale":0.25}}`)
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := gpuwalk.ParseConfig(strings.NewReader(s))
		if err != nil {
			return // invalid JSON/unknown fields: not our concern here
		}
		h1, err := gpuwalk.ConfigHash(cfg)
		if err != nil {
			t.Fatalf("ConfigHash on parsed config: %v", err)
		}
		h2, err := gpuwalk.ConfigHash(cfg)
		if err != nil || h1 != h2 {
			t.Fatalf("hash not deterministic: %s vs %s (%v)", h1, h2, err)
		}
		// Round-trip through the JSON codec: field formatting must not
		// leak into the hash.
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg2, err := gpuwalk.ParseConfig(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("re-parse of marshaled config: %v", err)
		}
		h3, err := gpuwalk.ConfigHash(cfg2)
		if err != nil || h3 != h1 {
			t.Fatalf("hash changed across save/load: %s vs %s (%v)", h1, h3, err)
		}
	})
}
