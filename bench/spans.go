package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// A job's request trace as served by GET /v1/jobs/{id}/trace: Chrome
// trace_event JSON whose complete ("X") events are the spans, with
// span and parent IDs in args. Timestamps are wall-clock microseconds,
// so gateway and backend spans of one job share a time base.

type span struct {
	name       string
	id, parent string
	start, end float64 // µs since the Unix epoch
}

type interval struct{ start, end float64 }

// parseChromeSpans extracts the spans of one Chrome trace document.
func parseChromeSpans(b []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				SpanID   string `json:"span_id"`
				ParentID string `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decoding trace: %w", err)
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		out = append(out, span{
			name: ev.Name, id: ev.Args.SpanID, parent: ev.Args.ParentID,
			start: ev.Ts, end: ev.Ts + ev.Dur,
		})
	}
	return out, nil
}

// unionLen returns the total length of the union of ivs clipped to
// [lo, hi].
func unionLen(ivs []interval, lo, hi float64) float64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	total := 0.0
	var cur interval
	for i, iv := range clipped {
		if i > 0 && iv.start <= cur.end {
			cur.end = max(cur.end, iv.end)
			continue
		}
		total += cur.end - cur.start
		cur = iv
	}
	return total + cur.end - cur.start
}

// spanTree indexes one job's spans by name and by parent.
type spanTree struct {
	spans    []span
	children map[string][]span
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: map[string][]span{}}
	for _, s := range spans {
		if s.parent != "" {
			t.children[s.parent] = append(t.children[s.parent], s)
		}
	}
	return t
}

// named returns every span called name.
func (t *spanTree) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover. A child named in transparent is replaced by its own children:
// jobd's per-item "item" span only wraps the runner's cache and sim
// spans, so the worker's self time looks through it.
func (t *spanTree) selfTime(s span, transparent ...string) float64 {
	var ivs []interval
	var walk func(parent string)
	walk = func(parent string) {
		for _, c := range t.children[parent] {
			if contains(transparent, c.name) {
				walk(c.id)
				continue
			}
			ivs = append(ivs, interval{c.start, c.end})
		}
	}
	walk(s.id)
	return (s.end - s.start) - unionLen(ivs, s.start, s.end)
}

// coverage is the length of [lo, hi] covered by any span of the tree.
func (t *spanTree) coverage(lo, hi float64) float64 {
	ivs := make([]interval, len(t.spans))
	for i, s := range t.spans {
		ivs[i] = interval{s.start, s.end}
	}
	return unionLen(ivs, lo, hi)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// stageSamples accumulates per-stage span times (ms) across jobs.
type stageSamples map[string][]float64

// addJob records one job's stage times. intended and finished bound
// the job's client-side done latency (µs since the epoch); the part of
// it no span covers is the client, the network and HTTP framing.
func (st stageSamples) addJob(t *spanTree, intended, finished float64) {
	add := func(key string, us float64) { st[key] = append(st[key], us/1000) }
	for _, s := range t.named("gateway.submit") {
		add("cluster.submit_self", t.selfTime(s))
	}
	for _, s := range t.named("gateway.route") {
		add("cluster.route", s.end-s.start)
	}
	for _, s := range t.named("gateway.proxy") {
		add("cluster.proxy_self", t.selfTime(s))
	}
	for _, s := range t.named("submit") {
		add("jobd.submit_self", t.selfTime(s))
	}
	for _, s := range t.named("journal.append") {
		add("jobd.journal", s.end-s.start)
	}
	for _, s := range t.named("queue.wait") {
		add("jobd.queue_wait", s.end-s.start)
	}
	for _, s := range t.named("job.run") {
		add("jobd.exec_self", t.selfTime(s, "item"))
	}
	for _, s := range t.named("cache.lookup") {
		add("simcache.lookup", s.end-s.start)
	}
	for _, s := range t.named("sim.run") {
		add("sim.run", s.end-s.start)
	}
	for _, s := range t.named("cache.put") {
		add("simcache.put", s.end-s.start)
	}
	if finished > intended {
		add("trace.unattributed", (finished-intended)-t.coverage(intended, finished))
	}
}

// metrics renders the stage samples as the per-layer span metrics. A
// stage the workload never ran (the gateway's, without a gateway)
// reports 0.
func (st stageSamples) metrics(m metricSet) {
	p := func(name, stage string, q float64) { m[name] = quantile(st[stage], q) }
	p("cluster.submit_self_ms_p50", "cluster.submit_self", 0.5)
	p("cluster.route_ms_p50", "cluster.route", 0.5)
	p("cluster.proxy_self_ms_p50", "cluster.proxy_self", 0.5)
	p("jobd.submit_self_ms_p50", "jobd.submit_self", 0.5)
	p("jobd.journal_ms_p50", "jobd.journal", 0.5)
	p("jobd.journal_ms_p99", "jobd.journal", 0.99)
	p("jobd.queue_wait_ms_p50", "jobd.queue_wait", 0.5)
	p("jobd.queue_wait_ms_p99", "jobd.queue_wait", 0.99)
	p("jobd.exec_self_ms_p50", "jobd.exec_self", 0.5)
	p("simcache.lookup_ms_p50", "simcache.lookup", 0.5)
	p("sim.run_ms_p50", "sim.run", 0.5)
	p("simcache.put_ms_p50", "simcache.put", 0.5)
	p("trace.unattributed_ms_p50", "trace.unattributed", 0.5)
}
