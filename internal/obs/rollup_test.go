package obs

import (
	"bytes"
	"strings"
	"testing"
)

// rollupNodeA and rollupNodeB are two backend expositions for the
// WriteRollup byte pin: a family both nodes declare (with different
// HELP text), a histogram, a label value and HELP text that need
// escaping, integer, float and infinite values, a family declared
// without HELP, and one declared without samples.
const rollupNodeA = `# HELP jobd_jobs_total Jobs by terminal state.
# TYPE jobd_jobs_total counter
jobd_jobs_total{state="done"} 3
jobd_jobs_total{state="failed"} 0
# HELP jobd_stage_seconds Stage latency.
# TYPE jobd_stage_seconds histogram
jobd_stage_seconds_bucket{stage="run",le="0.1"} 1
jobd_stage_seconds_bucket{stage="run",le="+Inf"} 2
jobd_stage_seconds_sum{stage="run"} 0.35
jobd_stage_seconds_count{stage="run"} 2
# HELP build_info Build metadata with \\ and \n escapes.
# TYPE build_info gauge
build_info{path="a\"b\\c\nd",version="v1"} 1
# TYPE up gauge
up 1
# HELP idle_total Declared without samples.
# TYPE idle_total counter
`

const rollupNodeB = `# HELP jobd_jobs_total Jobs by final state.
# TYPE jobd_jobs_total counter
jobd_jobs_total{state="done"} 1e+15
# HELP temp_celsius Temperature.
# TYPE temp_celsius gauge
temp_celsius{sensor="b"} -Inf
temp_celsius{sensor="a"} 2.5e-07
# HELP go_goroutines Number of goroutines that currently exist.
# TYPE go_goroutines gauge
go_goroutines 12
`

// TestWriteRollupGolden pins the rollup's bytes: families sorted by
// name, each declared once with the first node's HELP and TYPE, node
// label first, each node's samples in its own order.
func TestWriteRollupGolden(t *testing.T) {
	docs := map[string]*PromText{}
	for node, text := range map[string]string{"10.0.0.2:8171": rollupNodeB, "10.0.0.1:8171": rollupNodeA} {
		doc, err := ParsePromText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("parsing %s: %v", node, err)
		}
		docs[node] = doc
	}
	var buf bytes.Buffer
	if err := NewFamilySet().WriteRollup(&buf, docs); err != nil {
		t.Fatal(err)
	}
	want := `# HELP build_info Build metadata with \\ and \n escapes.
# TYPE build_info gauge
build_info{node="10.0.0.1:8171",path="a\"b\\c\nd",version="v1"} 1
# HELP go_goroutines Number of goroutines that currently exist.
# TYPE go_goroutines gauge
go_goroutines{node="10.0.0.2:8171"} 12
# HELP jobd_jobs_total Jobs by terminal state.
# TYPE jobd_jobs_total counter
jobd_jobs_total{node="10.0.0.1:8171",state="done"} 3
jobd_jobs_total{node="10.0.0.1:8171",state="failed"} 0
jobd_jobs_total{node="10.0.0.2:8171",state="done"} 1e+15
# HELP jobd_stage_seconds Stage latency.
# TYPE jobd_stage_seconds histogram
jobd_stage_seconds_bucket{node="10.0.0.1:8171",le="0.1",stage="run"} 1
jobd_stage_seconds_bucket{node="10.0.0.1:8171",le="+Inf",stage="run"} 2
jobd_stage_seconds_sum{node="10.0.0.1:8171",stage="run"} 0.35
jobd_stage_seconds_count{node="10.0.0.1:8171",stage="run"} 2
# HELP temp_celsius Temperature.
# TYPE temp_celsius gauge
temp_celsius{node="10.0.0.2:8171",sensor="b"} -Inf
temp_celsius{node="10.0.0.2:8171",sensor="a"} 2.5e-07
# TYPE up gauge
up{node="10.0.0.1:8171"} 1
`
	if got := buf.String(); got != want {
		t.Fatalf("rollup:\n%s\nwant:\n%s", got, want)
	}
	if _, err := ParsePromText(&buf); err != nil {
		t.Fatalf("rollup does not parse: %v", err)
	}
}

// TestWriteRollupDeclaresFamiliesOnce: a family both the set and a
// node hold is declared once, under the set's HELP and TYPE, with the
// set's own sample unlabeled and the node's right after it; the
// document passes the strict parser.
func TestWriteRollupDeclaresFamiliesOnce(t *testing.T) {
	fs := NewFamilySet()
	fs.GaugeFunc("go_goroutines", "Number of goroutines that currently exist.", func() float64 { return 3 })
	fs.NewCounter("gateway_proxied_total", "Requests proxied to a backend node.", "node").With("10.0.0.1:8171").Add(4)
	node, err := ParsePromText(strings.NewReader(rollupNodeB))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.WriteRollup(&buf, map[string]*PromText{"10.0.0.2:8171": node}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gateway_proxied_total Requests proxied to a backend node.
# TYPE gateway_proxied_total counter
gateway_proxied_total{node="10.0.0.1:8171"} 4
# HELP go_goroutines Number of goroutines that currently exist.
# TYPE go_goroutines gauge
go_goroutines 3
go_goroutines{node="10.0.0.2:8171"} 12
# HELP jobd_jobs_total Jobs by final state.
# TYPE jobd_jobs_total counter
jobd_jobs_total{node="10.0.0.2:8171",state="done"} 1e+15
# HELP temp_celsius Temperature.
# TYPE temp_celsius gauge
temp_celsius{node="10.0.0.2:8171",sensor="b"} -Inf
temp_celsius{node="10.0.0.2:8171",sensor="a"} 2.5e-07
`
	if got := buf.String(); got != want {
		t.Fatalf("rollup:\n%s\nwant:\n%s", got, want)
	}
	if _, err := ParsePromText(&buf); err != nil {
		t.Fatalf("rollup does not parse: %v", err)
	}
}
