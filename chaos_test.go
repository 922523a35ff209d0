package gpuwalk_test

import (
	"bytes"
	"errors"
	"testing"

	"gpuwalk"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/sim"
)

// chaosConfig is the golden-test workload with every fault class
// injected and the watchdog armed — the full-system acceptance run for
// the fault subsystem.
func chaosConfig() gpuwalk.Config {
	cfg := obsConfig(gpuwalk.SIMTAware)
	cfg.FaultInject = gpuwalk.FaultInjectConfig{
		Seed:             11,
		NonPresentRate:   0.05,
		WalkerKillPeriod: 9,
		PWCCorruptRate:   0.10,
	}
	cfg.IOMMU.Faults = gpuwalk.FaultConfig{
		QueueEntries: 8, ServiceSlots: 2, ServiceLat: 600, ServiceJitter: 300, RetryBackoff: 32,
	}
	cfg.IOMMU.OverflowEntries = 256
	cfg.WatchdogInterval = 2_000_000
	return cfg
}

// TestChaosRunCompletes is the system-level acceptance criterion: a
// fault-injected run (non-present faults, walker kills, PWC
// corruption) finishes every instruction without panics or watchdog
// trips, and the injected faults demonstrably happened.
func TestChaosRunCompletes(t *testing.T) {
	res, err := gpuwalk.Run(chaosConfig())
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if res.Injected.FaultsInjected == 0 {
		t.Error("no page faults injected; chaos run is vacuous")
	}
	if res.Injected.WalkersKilled < 1 {
		t.Error("no walkers killed; chaos run is vacuous")
	}
	if res.IOMMU.Faults == 0 || res.IOMMU.FaultsServiced != res.IOMMU.Faults {
		t.Errorf("faults %d serviced %d; every fault must be serviced",
			res.IOMMU.Faults, res.IOMMU.FaultsServiced)
	}
	if res.IOMMU.WalkerKills == 0 || res.IOMMU.WalkRetries < res.IOMMU.WalkerKills {
		t.Errorf("kills %d retries %d; every killed walk must retry",
			res.IOMMU.WalkerKills, res.IOMMU.WalkRetries)
	}
	t.Logf("cycles=%d faults=%d kills=%d corrupted=%d retries=%d",
		res.Cycles, res.IOMMU.Faults, res.IOMMU.WalkerKills,
		res.Injected.ProbesCorrupted, res.IOMMU.WalkRetries)
}

// TestChaosRunDeterministic runs the identical fault-injected workload
// twice and requires byte-identical Chrome traces and metrics CSVs.
func TestChaosRunDeterministic(t *testing.T) {
	trace1, csv1 := traceRun(t, chaosConfig())
	trace2, csv2 := traceRun(t, chaosConfig())
	if !bytes.Equal(trace1, trace2) {
		t.Error("chaos trace JSON differs between identical runs")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("chaos metrics CSV differs between identical runs")
	}
	if err := obs.CheckChrome(trace1); err != nil {
		t.Errorf("invalid Chrome trace: %v", err)
	}
}

// TestChaosAcrossSchedulers sweeps every policy under injection — the
// fault path must compose with each scheduling rule, not just the
// default.
func TestChaosAcrossSchedulers(t *testing.T) {
	for _, sched := range gpuwalk.SchedulerKinds() {
		t.Run(string(sched), func(t *testing.T) {
			cfg := chaosConfig()
			cfg.Scheduler = sched
			res, err := gpuwalk.Run(cfg)
			if err != nil {
				t.Fatalf("chaos run failed: %v", err)
			}
			if res.IOMMU.FaultsServiced != res.IOMMU.Faults {
				t.Errorf("faults %d serviced %d", res.IOMMU.Faults, res.IOMMU.FaultsServiced)
			}
		})
	}
}

// TestStallDeterministic: a livelocked run stalls the same way every
// time. WalkerKillPeriod 1 kills every demand walk, re-dispatches
// included, so the pipeline wedges until the watchdog trips
// (docs/FAULTS.md). Both runs must fail with a *sim.StallError of
// identical text: cycle, progress count and queue dump. gpuwalkd runs
// each job once on the strength of this, since re-running a stalled
// spec would reproduce the stall.
func TestStallDeterministic(t *testing.T) {
	stall := func() string {
		t.Helper()
		cfg := gpuwalk.DefaultConfig()
		cfg.Workload = "MVT"
		cfg.Gen.Scale = 0.02
		cfg.Gen.WavefrontsPerCU = 2
		cfg.Gen.InstrsPerWavefront = 6
		cfg.FaultInject.WalkerKillPeriod = 1
		cfg.WatchdogInterval = 20000
		_, err := gpuwalk.Run(cfg)
		var se *sim.StallError
		if !errors.As(err, &se) {
			t.Fatalf("livelocked run: err = %v, want a *sim.StallError", err)
		}
		return se.Error()
	}
	if a, b := stall(), stall(); a != b {
		t.Fatalf("stall differs between identical runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
}
