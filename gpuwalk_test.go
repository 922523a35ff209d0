package gpuwalk_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gpuwalk"
)

// microConfig returns a fast test configuration.
func microConfig() gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.Gen.WavefrontsPerCU = 2
	cfg.Gen.InstrsPerWavefront = 6
	cfg.Gen.Scale = 0.05
	cfg.Gen.Seed = 11
	cfg.Seed = 11
	return cfg
}

func TestDefaultConfigRuns(t *testing.T) {
	cfg := microConfig()
	res, err := gpuwalk.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "MVT" || res.Scheduler != "fcfs" {
		t.Errorf("defaults = %s/%s", res.Workload, res.Scheduler)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Error("empty result")
	}
}

func TestAllWorkloadsAllSchedulers(t *testing.T) {
	for _, wl := range gpuwalk.WorkloadNames() {
		for _, sk := range gpuwalk.SchedulerKinds() {
			cfg := microConfig()
			cfg.Workload = wl
			cfg.Scheduler = sk
			res, err := gpuwalk.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, sk, err)
			}
			if res.Instructions == 0 {
				t.Errorf("%s/%s: no instructions executed", wl, sk)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	cfg := microConfig()
	cfg.Workload = "BOGUS"
	if _, err := gpuwalk.Run(cfg); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestUnknownScheduler also covers the deleted CU-fair policy: a spec
// that still names it must fail, not fall back to another policy.
func TestUnknownScheduler(t *testing.T) {
	for _, kind := range []gpuwalk.SchedulerKind{"bogus", "cu-fair"} {
		cfg := microConfig()
		cfg.Scheduler = kind
		want := fmt.Sprintf("core: unknown scheduler kind %q", kind)
		if _, err := gpuwalk.Run(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Scheduler %q: err = %v, want %s", kind, err, want)
		}
	}
}

func TestCompare(t *testing.T) {
	cfg := microConfig()
	base, test, speedup, err := gpuwalk.Compare(cfg, gpuwalk.FCFS, gpuwalk.SIMTAware)
	if err != nil {
		t.Fatal(err)
	}
	if base.Scheduler != "fcfs" || test.Scheduler != "simt-aware" {
		t.Errorf("schedulers = %s/%s", base.Scheduler, test.Scheduler)
	}
	if speedup != gpuwalk.Speedup(base, test) {
		t.Error("speedup inconsistent with Speedup helper")
	}
	if speedup <= 0 {
		t.Errorf("speedup = %f", speedup)
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := gpuwalk.Result{Cycles: 200}
	b := gpuwalk.Result{Cycles: 100}
	if got := gpuwalk.Speedup(a, b); got != 2 {
		t.Errorf("Speedup = %f, want 2", got)
	}
	if got := gpuwalk.Speedup(a, gpuwalk.Result{}); got != 0 {
		t.Errorf("Speedup with zero divisor = %f", got)
	}
}

func TestGenerateMatchesMachineShape(t *testing.T) {
	cfg := microConfig()
	cfg.GPU.CUs = 4
	tr, err := gpuwalk.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tr.Wavefronts {
		if w.CU >= 4 {
			t.Fatalf("trace wavefront pinned to CU %d with 4 CUs", w.CU)
		}
	}
}

func TestRunTraceCustom(t *testing.T) {
	cfg := microConfig()
	tr := &gpuwalk.Trace{Name: "custom", Footprint: 1 << 20}
	for wf := 0; wf < 2; wf++ {
		tr.Wavefronts = append(tr.Wavefronts, gpuwalk.WavefrontTrace{
			CU: wf,
			Instrs: []gpuwalk.MemInstr{
				{Lanes: []uint64{uint64(wf+1) << 20, uint64(wf+1)<<20 | 4096}},
				{Lanes: []uint64{uint64(wf+1)<<20 | 8192}, Write: true},
			},
		})
	}
	res, err := gpuwalk.RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "custom" {
		t.Errorf("Workload = %q", res.Workload)
	}
	if res.Instructions != 4 {
		t.Errorf("Instructions = %d, want 4", res.Instructions)
	}
}

// TestNewSystemMatchesRunTrace: building a system with NewSystem and
// running it gives RunTrace's Result, JSON byte for byte.
func TestNewSystemMatchesRunTrace(t *testing.T) {
	for _, sched := range []gpuwalk.SchedulerKind{gpuwalk.FCFS, gpuwalk.SIMTAware} {
		cfg := microConfig()
		cfg.Scheduler = sched
		tr, err := gpuwalk.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gpuwalk.RunTrace(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := gpuwalk.NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: NewSystem's run differs from RunTrace's:\n%s\n%s", sched, gotJSON, wantJSON)
		}
	}
}

func TestWorkloadRegistry(t *testing.T) {
	if len(gpuwalk.Workloads()) != 12 {
		t.Errorf("Workloads = %d", len(gpuwalk.Workloads()))
	}
	if len(gpuwalk.IrregularWorkloadNames()) != 6 {
		t.Errorf("irregular = %v", gpuwalk.IrregularWorkloadNames())
	}
	if _, err := gpuwalk.WorkloadByName("GEV"); err != nil {
		t.Error(err)
	}
	names := strings.Join(gpuwalk.WorkloadNames(), ",")
	for _, want := range []string{"XSB", "MVT", "HOT"} {
		if !strings.Contains(names, want) {
			t.Errorf("WorkloadNames missing %s", want)
		}
	}
}

func TestSchedulerKindsList(t *testing.T) {
	if got, want := fmt.Sprint(gpuwalk.SchedulerKinds()), "[fcfs random sjf batch simt-aware]"; got != want {
		t.Errorf("SchedulerKinds = %s, want %s", got, want)
	}
}
