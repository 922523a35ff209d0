package gpuwalk_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuwalk"
	"gpuwalk/internal/gpu"
)

// scheduleDigestFile pins one digest per scheduleCases entry.
var scheduleDigestFile = filepath.Join("testdata", "schedule-digests.json")

type scheduleCase struct {
	name string
	cfg  gpuwalk.Config
}

// scheduleCases are the full-system runs whose dispatch streams are
// pinned. The tiny buffer and walker pool force heavy overflow traffic
// through the strict-FIFO admission path:
//   - policy/*: every built-in policy on three irregular workloads;
//   - engine/*: SIMT-aware on the four paper workloads;
//   - faults/*: walker kills and non-present PTEs, which exercise the
//     walk-state pool's abort paths and the fault queue's retry events.
func scheduleCases() []scheduleCase {
	var cases []scheduleCase
	add := func(name string, mutate func(*gpuwalk.Config)) {
		cfg := microConfig()
		cfg.IOMMU.BufferEntries = 16
		cfg.IOMMU.Walkers = 2
		mutate(&cfg)
		cases = append(cases, scheduleCase{name, cfg})
	}
	for _, wl := range []string{"MVT", "ATX", "GEV"} {
		for _, sk := range gpuwalk.SchedulerKinds() {
			add("policy/"+wl+"/"+string(sk), func(c *gpuwalk.Config) {
				c.Workload = wl
				c.Scheduler = sk
				c.SchedOpts.Seed = 7
				c.SchedOpts.AgingThreshold = 32
			})
		}
	}
	for _, wl := range []string{"MVT", "ATX", "GEV", "SSP"} {
		add("engine/"+wl, func(c *gpuwalk.Config) {
			c.Workload = wl
			c.Scheduler = gpuwalk.SIMTAware
			c.SchedOpts.AgingThreshold = 32
		})
	}
	add("faults/SSP", func(c *gpuwalk.Config) {
		c.Workload = "SSP"
		c.Scheduler = gpuwalk.FCFS
		c.FaultInject.Seed = 5
		c.FaultInject.NonPresentRate = 0.05
		c.FaultInject.WalkerKillPeriod = 40
	})
	return cases
}

// scheduleDigest runs cfg with the walk-schedule recorder on and
// returns the SHA-256 of its schedule log, one
// "walker:start:end:instr:vpn:" hex line per completed walk, followed
// by the JSON of its Result.
func scheduleDigest(t *testing.T, cfg gpuwalk.Config) string {
	t.Helper()
	cfg.IOMMU.RecordSchedule = true
	cfg.IOMMU.RecordLimit = 1 << 20
	tr, err := gpuwalk.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gpu.NewSystem(gpu.Params{
		GPU:         cfg.GPU,
		DRAM:        cfg.DRAM,
		IOMMU:       cfg.IOMMU,
		SchedKind:   cfg.Scheduler,
		SchedOpts:   cfg.SchedOpts,
		Seed:        cfg.Seed,
		FaultInject: cfg.FaultInject,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	log := sys.IOMMU().ScheduleLog()
	if len(log) == 0 {
		t.Fatal("empty schedule log")
	}
	h := sha256.New()
	for _, w := range log {
		fmt.Fprintf(h, "%x:%x:%x:%x:%x:\n", w.Walker, uint64(w.Start), uint64(w.End), uint64(w.Instr), w.VPN)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil))
}

// The system differentials below pin each group of scheduleCases to
// committed digests of the dispatch stream and Result. The reference
// side is recorded: the digests were taken while the linear reference
// schedulers and the container/heap event queue still ran in production
// and produced the same streams as the indexed schedulers on the flat
// four-ary heap queue, which the timing-wheel queue has since replaced
// without moving a digest. Those references now live only in the tests
// of internal/core (TestDifferentialIndexedVsReference) and
// internal/sim (TestEngineOrderProperty). A deliberate model change (a
// gpu.ModelVersion bump) regenerates the digests with
// `go test -run TestSystemDifferential -update .`.

// TestSystemDifferentialIndexedVsReference runs every built-in policy on
// MVT, ATX and GEV through the indexed pending buffer and requires the
// linear reference schedulers' dispatch stream and Result. The tiny
// buffer and walker pool force heavy overflow traffic, so the
// strict-FIFO admission path is exercised too.
func TestSystemDifferentialIndexedVsReference(t *testing.T) {
	checkScheduleDigests(t, "policy/")
}

// TestSystemDifferentialFlatVsReferenceEngine runs the four paper
// workloads on the engine's two-level event queue (timing wheel plus
// far heap) and requires the dispatch stream and Result of the
// container/heap reference queue.
func TestSystemDifferentialFlatVsReferenceEngine(t *testing.T) {
	checkScheduleDigests(t, "engine/")
}

// TestSystemDifferentialEngineWithFaults repeats the engine check under
// fault injection (walker kills, non-present PTEs), which exercises the
// walk-state pool's abort paths and the fault queue's retry events.
func TestSystemDifferentialEngineWithFaults(t *testing.T) {
	checkScheduleDigests(t, "faults/")
}

// checkScheduleDigests runs the scheduleCases whose names start with
// group and compares each digest with scheduleDigestFile. With -update
// it rewrites the group's entries instead and leaves the others alone.
func checkScheduleDigests(t *testing.T, group string) {
	t.Helper()
	want := map[string]string{}
	raw, err := os.ReadFile(scheduleDigestFile)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	case !*update || !os.IsNotExist(err):
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, tc := range scheduleCases() {
		if strings.HasPrefix(tc.name, group) {
			got[tc.name] = scheduleDigest(t, tc.cfg)
		}
	}
	if len(got) == 0 {
		t.Fatalf("no schedule cases in group %q", group)
	}
	if *update {
		for name := range want {
			if strings.HasPrefix(name, group) {
				delete(want, name)
			}
		}
		for name, d := range got {
			want[name] = d
		}
		js, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scheduleDigestFile, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range want {
		if _, ok := got[name]; strings.HasPrefix(name, group) && !ok {
			t.Errorf("%s: golden digest for a case that no longer runs", name)
		}
	}
	for _, tc := range scheduleCases() {
		if d, ok := got[tc.name]; ok && d != want[tc.name] {
			t.Errorf("%s: digest %s, golden %s", tc.name, d, want[tc.name])
		}
	}
}
