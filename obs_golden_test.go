package gpuwalk_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gpuwalk"
	"gpuwalk/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden trace/metrics files")

// obsConfig returns a tiny seeded workload small enough to keep the
// golden files readable while still exercising every hook: TLB misses,
// walk scheduling, PWC protection, DRAM accesses.
func obsConfig(sched gpuwalk.SchedulerKind) gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.GPU.CUs = 2
	cfg.Gen.WavefrontsPerCU = 1
	cfg.Gen.InstrsPerWavefront = 3
	cfg.Gen.Scale = 0.02
	cfg.Gen.Seed = 7
	cfg.Seed = 7
	cfg.Scheduler = sched
	return cfg
}

// traceRun executes cfg with tracing and metrics attached and returns
// the serialized Chrome trace and metrics CSV.
func traceRun(t *testing.T, cfg gpuwalk.Config) (trace, csv []byte) {
	t.Helper()
	tr := gpuwalk.NewTracer()
	met := gpuwalk.NewMetrics()
	cfg.Obs = gpuwalk.ObsConfig{Tracer: tr, Metrics: met, MetricsEpoch: 500}
	if _, err := gpuwalk.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var tb, mb bytes.Buffer
	if err := tr.WriteChrome(&tb); err != nil {
		t.Fatal(err)
	}
	if err := met.WriteCSV(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestTraceDeterminism runs the same seeded workload twice under every
// policy and requires byte-identical trace JSON and metrics CSV, plus a
// structurally valid Chrome trace.
func TestTraceDeterminism(t *testing.T) {
	for _, sched := range gpuwalk.SchedulerKinds() {
		t.Run(string(sched), func(t *testing.T) {
			cfg := obsConfig(sched)
			trace1, csv1 := traceRun(t, cfg)
			trace2, csv2 := traceRun(t, cfg)
			if !bytes.Equal(trace1, trace2) {
				t.Error("trace JSON differs between identical runs")
			}
			if !bytes.Equal(csv1, csv2) {
				t.Error("metrics CSV differs between identical runs")
			}
			if err := obs.CheckChrome(trace1); err != nil {
				t.Errorf("invalid Chrome trace: %v", err)
			}
			if len(csv1) == 0 {
				t.Error("empty metrics CSV")
			}
		})
	}
}

// TestObsLeavesResultUnchanged runs obsConfig under every policy on
// MVT, XSB and SSP, once bare and once with a tracer, a metrics
// registry and a progress hook attached, and requires byte-identical
// Result JSON. Observers only read model state, and their periodic
// samples are daemon events, so a drained run ends on its last real
// event rather than on the next sample boundary.
func TestObsLeavesResultUnchanged(t *testing.T) {
	run := func(t *testing.T, cfg gpuwalk.Config) []byte {
		t.Helper()
		res, err := gpuwalk.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	for _, wl := range []string{"MVT", "XSB", "SSP"} {
		for _, sched := range gpuwalk.SchedulerKinds() {
			t.Run(wl+"/"+string(sched), func(t *testing.T) {
				cfg := obsConfig(sched)
				cfg.Workload = wl
				bare := run(t, cfg)

				met := gpuwalk.NewMetrics()
				published := 0
				cfg.Obs = gpuwalk.ObsConfig{
					Tracer:        gpuwalk.NewTracer(),
					Metrics:       met,
					MetricsEpoch:  500,
					Progress:      func(gpuwalk.Progress) { published++ },
					ProgressEvery: 300,
				}
				if observed := run(t, cfg); !bytes.Equal(observed, bare) {
					t.Errorf("Result JSON with observers attached differs from the bare run:\nbare:     %.200s\nobserved: %.200s", bare, observed)
				}
				// A baseline, a final row and at least one periodic one.
				if met.Rows() < 3 || published < 3 {
					t.Errorf("observers barely ran: %d metric rows, %d progress snapshots", met.Rows(), published)
				}
			})
		}
	}
}

// TestTraceGolden pins the exact observability output of one small
// workload per policy. Regenerate with `go test -run TraceGolden -update`
// after intentional changes to event content or metric names.
func TestTraceGolden(t *testing.T) {
	for _, sched := range []gpuwalk.SchedulerKind{gpuwalk.FCFS, gpuwalk.SIMTAware} {
		t.Run(string(sched), func(t *testing.T) {
			trace, csv := traceRun(t, obsConfig(sched))
			compareGolden(t, fmt.Sprintf("trace-%s.json", sched), trace)
			compareGolden(t, fmt.Sprintf("metrics-%s.csv", sched), csv)
		})
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "obs", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (%d vs %d bytes); run with -update if intentional",
			name, len(got), len(want))
	}
}
