package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	h := sc.Traceparent()
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}
	// Surrounding whitespace is tolerated.
	if _, err := ParseTraceparent("  " + h + " "); err != nil {
		t.Fatalf("ParseTraceparent with whitespace: %v", err)
	}
}

func TestParseTraceparentRejectsInvalid(t *testing.T) {
	valid := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}.Traceparent()
	tr, par := valid[3:35], valid[36:52]
	cases := map[string]string{
		"empty":              "",
		"too few fields":     "00-" + tr + "-" + par,
		"version ff":         "ff-" + tr + "-" + par + "-01",
		"version 1 char":     "0-" + tr + "-" + par + "-01",
		"version uppercase":  "0A-" + tr + "-" + par + "-01",
		"version 00 extra":   valid + "-extra",
		"trace too short":    "00-" + tr[:30] + "-" + par + "-01",
		"trace too long":     "00-" + tr + "ab-" + par + "-01",
		"trace uppercase":    "00-" + strings.ToUpper(tr) + "-" + par + "-01",
		"trace non-hex":      "00-" + tr[:31] + "g-" + par + "-01",
		"trace all zero":     "00-" + strings.Repeat("0", 32) + "-" + par + "-01",
		"parent too short":   "00-" + tr + "-" + par[:14] + "-01",
		"parent all zero":    "00-" + tr + "-" + strings.Repeat("0", 16) + "-01",
		"flags too long":     "00-" + tr + "-" + par + "-011",
		"flags non-hex":      "00-" + tr + "-" + par + "-zz",
		"flags uppercase":    "00-" + tr + "-" + par + "-0F",
		"garbage":            "hello world",
		"dashes only":        "---",
		"all fields garbage": "xx-yy-zz-ww",
	}
	for name, h := range cases {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", name, h)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	valid := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}.Traceparent()
	tr, par := valid[3:35], valid[36:52]
	// A future version may append fields; the first four still parse.
	h := "cc-" + tr + "-" + par + "-01-whatever-else"
	sc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("future version with extra fields rejected: %v", err)
	}
	if sc.Trace.String() != tr || sc.Span.String() != par {
		t.Fatalf("future version parsed wrong IDs: %+v", sc)
	}
}

func TestSpanBufParentageAndLimit(t *testing.T) {
	buf := NewSpanBuf("testsvc", NewTraceID(), 3)
	root := buf.StartSpan("root", SpanID{})
	child := buf.StartSpan("child", root.ID(), Str("k", "v"))
	child.End(U64("n", 7))
	child.End() // double End is a no-op
	root.End()
	buf.StartSpan("measured", root.ID()).End()
	// Limit is 3: the fourth completed span is dropped.
	buf.StartSpan("overflow", SpanID{}).End()

	spans := buf.Spans()
	if len(spans) != 3 || spans[2].Name != "measured" {
		t.Fatalf("got %d spans, want 3 ending with measured: %+v", len(spans), spans)
	}
	if spans[0].Name != "child" || spans[0].Parent != root.ID() {
		t.Fatalf("child span wrong: %+v", spans[0])
	}
	if len(spans[0].Attrs) != 2 || spans[0].Attrs[0].Key != "k" || spans[0].Attrs[1].Key != "n" {
		t.Fatalf("child attrs wrong: %+v", spans[0].Attrs)
	}
	if spans[1].Name != "root" || !spans[1].Parent.IsZero() {
		t.Fatalf("root span wrong: %+v", spans[1])
	}
	for _, s := range spans {
		if s.Trace != buf.Trace() || s.Service != "testsvc" || s.ID.IsZero() {
			t.Fatalf("span missing identity fields: %+v", s)
		}
	}
}

func TestSpanBufOnEnd(t *testing.T) {
	buf := NewSpanBuf("svc", NewTraceID(), 0)
	var names []string
	buf.OnEnd(func(name string, d time.Duration) { names = append(names, name) })
	buf.StartSpan("a", SpanID{}).End()
	buf.StartSpan("b", SpanID{}).End()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("onEnd saw %v, want [a b]", names)
	}
}

func TestNilSafety(t *testing.T) {
	var buf *SpanBuf
	buf.OnEnd(func(string, time.Duration) {})
	if got := buf.StartSpan("x", SpanID{}); got != nil {
		t.Fatalf("nil buf StartSpan returned %v", got)
	}
	if buf.Spans() != nil || !buf.Trace().IsZero() || buf.Service() != "" {
		t.Fatal("nil buf accessors not zero")
	}
	var as *ActiveSpan
	as.End() // must not panic
	if !as.ID().IsZero() {
		t.Fatal("nil ActiveSpan not zero")
	}
	var ref SpanRef
	if ref.Valid() {
		t.Fatal("zero SpanRef is Valid")
	}
	ref.Start("x").End() // both no-ops
}

func TestContextSpanRef(t *testing.T) {
	ctx := context.Background()
	if got := ContextWithSpanRef(ctx, SpanRef{}); got != ctx {
		t.Fatal("zero SpanRef should return the context unchanged")
	}
	buf := NewSpanBuf("svc", NewTraceID(), 0)
	ref := SpanRef{Buf: buf, Span: NewSpanID()}
	ctx2 := ContextWithSpanRef(ctx, ref)
	got := SpanRefFrom(ctx2)
	if got != ref {
		t.Fatalf("SpanRefFrom = %+v, want %+v", got, ref)
	}
	got.Start("child").End()
	spans := buf.Spans()
	if len(spans) != 1 || spans[0].Parent != ref.Span {
		t.Fatalf("child span not parented to ref: %+v", spans)
	}
}

// TestDisabledTracingAllocatesNothing pins the "tracing disabled" cost:
// threading a zero SpanRef through the span hooks must not allocate.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ref := SpanRefFrom(ctx)
		sp := ref.Start("stage")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f/op, want 0", allocs)
	}
}

func TestRequestIDFromTrace(t *testing.T) {
	tr := NewTraceID()
	id := RequestIDFromTrace(tr)
	if len(id) != 17 || id[0] != 't' {
		t.Fatalf("RequestIDFromTrace = %q, want t + 16 hex chars", id)
	}
	if !strings.HasPrefix(tr.String(), id[1:]) {
		t.Fatalf("derived ID %q is not a prefix of trace %q", id, tr.String())
	}
	if RequestIDFromTrace(tr) != id {
		t.Fatal("derivation is not stable")
	}
}

func TestWriteChromeSpansValidates(t *testing.T) {
	trace := NewTraceID()
	gw := NewSpanBuf("gateway", trace, 0)
	be := NewSpanBuf("node1", trace, 0)
	root := gw.StartSpan("gateway.submit", SpanID{})
	be.StartSpan("submit", root.ID()).End()
	root.End()
	merged := append(gw.Spans(), be.Spans()...)

	var out bytes.Buffer
	if err := WriteChromeSpans(&out, merged); err != nil {
		t.Fatalf("WriteChromeSpans: %v", err)
	}
	if err := CheckChrome(out.Bytes()); err != nil {
		t.Fatalf("CheckChrome rejected span trace: %v\n%s", err, out.String())
	}

	var doc struct {
		OtherData map[string]any `json:"otherData"`
		Events    []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("decoding emitted trace: %v", err)
	}
	if doc.OtherData["trace_id"] != trace.String() {
		t.Fatalf("otherData.trace_id = %v, want %s", doc.OtherData["trace_id"], trace)
	}
	pids := map[string]int{}
	gotSpans := map[string]map[string]any{}
	for _, e := range doc.Events {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				pids[e.Args["name"].(string)] = e.PID
			}
		case "X":
			gotSpans[e.Name] = e.Args
		}
	}
	if len(pids) != 2 || pids["gateway"] == pids["node1"] {
		t.Fatalf("services not mapped to distinct pids: %v", pids)
	}
	sub, ok := gotSpans["submit"]
	if !ok {
		t.Fatalf("backend submit span missing: %v", gotSpans)
	}
	if sub["parent_id"] != root.ID().String() {
		t.Fatalf("submit parent_id = %v, want %s", sub["parent_id"], root.ID())
	}
	if sub["trace_id"] != trace.String() {
		t.Fatalf("submit trace_id = %v, want %s", sub["trace_id"], trace)
	}
}
