package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDefJSON `json:"end_to_end"`
	PerLayer []metricDefJSON `json:"per_layer"`
}

type metricDefJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogueMatchesBenchmarkFile keeps BENCHMARK.json and the
// metric catalogue the benchmark prints from in step.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, got []metricDefJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for i := range names {
		if names[i] != workloads[i] {
			t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
		}
	}
}

// TestQuickSmoke runs all four workloads at a small fraction of their
// size, untraced and traced, and checks that every metric BENCHMARK.json
// names is reported with its unit and a finite value, and that the
// correctness gate passes.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts gpuwalkd processes")
	}
	f := readBenchmarkFile(t)
	for _, tc := range []struct {
		trace string
		want  []metricDefJSON
	}{{"0", f.EndToEnd}, {"1", f.PerLayer}} {
		out := filepath.Join(t.TempDir(), "result.json")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-quick", "-seconds", "0.5", "-trace", tc.trace, "-out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", tc.trace, code, stdout.String(), stderr.String())
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var reps []report
		if err := json.Unmarshal(b, &reps); err != nil {
			t.Fatal(err)
		}
		if len(reps) != len(workloads) {
			t.Fatalf("trace %s: %d workload reports, want %d", tc.trace, len(reps), len(workloads))
		}
		for _, r := range reps {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("trace %s: %s: correct=%v attempted=%d failed=%d errors=%v",
					tc.trace, r.Workload, r.Correct, r.Attempted, r.Failed, r.Errors)
			}
			for _, d := range tc.want {
				v, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("trace %s: %s: metric %s missing", tc.trace, r.Workload, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("trace %s: %s: %s unit %q, want %q", tc.trace, r.Workload, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("trace %s: %s: %s = %v", tc.trace, r.Workload, d.Name, v.Value)
				}
			}
			if len(r.Metrics) != len(tc.want) {
				t.Errorf("trace %s: %s reports %d metrics, want %d", tc.trace, r.Workload, len(r.Metrics), len(tc.want))
			}
		}
		// The last line is the machine-readable summary.
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var last struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Correct == nil || !*last.Correct ||
			last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(tc.want)*len(workloads) {
			t.Errorf("trace %s: bad summary line %s (%v)", tc.trace, lines[len(lines)-1], err)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "maybe"},
		{"-seconds", "0"},
		{"extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi float64
		want   float64
	}{
		{"empty", nil, 0, 10, 0},
		{"disjoint", []interval{{1, 2}, {4, 6}}, 0, 10, 3},
		{"overlapping", []interval{{1, 5}, {3, 7}}, 0, 10, 6},
		{"nested", []interval{{1, 9}, {2, 3}, {4, 5}}, 0, 10, 8},
		{"touching", []interval{{1, 2}, {2, 3}}, 0, 10, 2},
		{"clipped", []interval{{-5, 2}, {8, 20}}, 0, 10, 4},
		{"outside", []interval{{11, 12}}, 0, 10, 0},
		{"unsorted", []interval{{6, 8}, {1, 3}, {2, 4}}, 0, 10, 5},
	} {
		if got := unionLen(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: unionLen = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tree := newSpanTree([]span{
		{name: "job.run", id: "run", start: 0, end: 100},
		{name: "journal.append", id: "j", parent: "run", start: 0, end: 10},
		{name: "item", id: "item", parent: "run", start: 20, end: 90},
		// Overlapping children of the item: their union is 20..70.
		{name: "cache.lookup", id: "l", parent: "item", start: 20, end: 50},
		{name: "sim.run", id: "s", parent: "item", start: 40, end: 70},
		// A grandchild nested inside sim.run adds nothing to the union.
		{name: "inner", id: "x", parent: "s", start: 45, end: 60},
		// A child that outlives its parent is clipped to the parent.
		{name: "late", id: "late", parent: "run", start: 95, end: 130},
	})
	run := tree.named("job.run")[0]
	if got := tree.selfTime(run); got != 100-(10+70+5) {
		t.Errorf("self time = %v, want 15", got)
	}
	if got := tree.selfTime(run, "item"); got != 100-(10+50+5) {
		t.Errorf("self time through item = %v, want 35", got)
	}
	if got := tree.coverage(-50, 200); got != 130 {
		t.Errorf("coverage = %v, want 130", got)
	}
}

func TestStageSamples(t *testing.T) {
	tree := newSpanTree([]span{
		{name: "gateway.submit", id: "g", start: 0, end: 1000},
		{name: "gateway.route", id: "r", parent: "g", start: 10, end: 60},
		{name: "gateway.proxy", id: "p", parent: "g", start: 100, end: 900},
		{name: "submit", id: "s", parent: "p", start: 200, end: 700},
		{name: "journal.append", id: "j", parent: "s", start: 300, end: 600},
	})
	st := stageSamples{}
	st.addJob(tree, -1000, 1500)
	m := metricSet{}
	st.metrics(m)
	want := map[string]float64{
		"cluster.submit_self_ms_p50": 0.15, // 1000 - (50 + 800) µs
		"cluster.route_ms_p50":       0.05,
		"cluster.proxy_self_ms_p50":  0.3,
		"jobd.submit_self_ms_p50":    0.2,
		"jobd.journal_ms_p50":        0.3,
		"trace.unattributed_ms_p50":  1.5, // 2500 µs of done latency, 1000 covered
		"sim.run_ms_p50":             0,   // no such stage
	}
	for name, w := range want {
		if math.Abs(m[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], w)
		}
	}
}

func TestProfileGroup(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"gpuwalk/internal/sim.(*Engine).pop", "gpuwalk/internal/sim.(*Engine).Step"}, "sim"},
		// Runtime and library leaves count toward the calling package.
		{[]string{"runtime.memmove", "sort.Slice", "gpuwalk/internal/dram.(*channel).tick", "gpuwalk/internal/sim.(*Engine).Step"}, "dram"},
		// Non-layer repo packages are skipped the same way.
		{[]string{"gpuwalk/internal/stats.(*Mean).Add", "gpuwalk/internal/iommu.(*IOMMU).finish.func1"}, "iommu"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "gpuwalk/internal/gpu.(*cu).issue"}, "malloc"},
		// Mark assists happen inside mallocgc but are collector work.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "gpuwalk/internal/core.(*groupHeap).push"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.findObject", "runtime.wbBufFlush1", "runtime.wbBufFlush", "gpuwalk/internal/tlb.(*TLB).Insert"}, "gc"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	} {
		if got := profileGroup(tc.stack); got != tc.want {
			t.Errorf("%v: group %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func allocateForProfile() []byte { return make([]byte, 1<<16) }

var sinkBytes [][]byte

// TestParseProfile decodes a real runtime/pprof profile and finds a
// known allocation site's stack in it.
func TestParseProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	for i := 0; i < 10; i++ {
		sinkBytes = append(sinkBytes, allocateForProfile())
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for i, fn := range s.stack {
			if fn == "gpuwalk/bench.allocateForProfile" && i+1 < len(s.stack) && s.stack[i+1] == "gpuwalk/bench.TestParseProfile" && s.count > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample with the allocation site among %d samples", len(samples))
	}
	shares := groupShares(samples)
	total := 0.0
	for _, p := range profilePkgs {
		total += shares[p]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("group shares sum to %v", total)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed without error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}
