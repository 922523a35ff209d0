package obs

import (
	"bytes"
	"testing"
	"time"
)

// pinnedSpans is a fixed span set for the WriteChromeSpans byte pin:
// fixed IDs and start times, spans out of start order, a root span
// without a parent, a span with no service (rendered "unknown"), two
// spans that tie on start time, string attrs (one needing JSON escapes,
// one empty), numeric attrs including zero, and a sub-microsecond
// duration.
func pinnedSpans() []Span {
	trace := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	id := func(b byte) SpanID { return SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, b} }
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	return []Span{
		{Name: "submit", Service: "10.0.0.1:8171", Trace: trace, ID: id(3), Parent: id(4),
			Start: at(300), Dur: 1200 * time.Microsecond,
			Attrs: []Arg{Str("job_id", "10.0.0.1:8171-j1"), U64("items", 1)}},
		{Name: "gateway.submit", Service: "gateway", Trace: trace, ID: id(1),
			Start: at(0), Dur: 2500 * time.Microsecond,
			Attrs: []Arg{Str("request_id", "bench-1"), U64("code", 202)}},
		{Name: "cache.peer_fetch", Trace: trace, ID: id(5), Parent: id(3),
			Start: at(300), Dur: 1500 * time.Nanosecond,
			Attrs: []Arg{Str("error", `peer said "no" <html> & more`), Str("empty", ""), U64("zero", 0)}},
		{Name: "gateway.proxy", Service: "gateway", Trace: trace, ID: id(4), Parent: id(1),
			Start: at(150), Dur: 2000 * time.Microsecond,
			Attrs: []Arg{Str("node", "10.0.0.1:8171")}},
		{Name: "gateway.route", Service: "gateway", Trace: trace, ID: id(2), Parent: id(1),
			Start: at(100), Dur: 40 * time.Microsecond},
	}
}

// TestWriteChromeSpansGolden pins WriteChromeSpans byte for byte, for
// the fixed span set and for the empty set.
func TestWriteChromeSpansGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []Span
		want  string
	}{
		{"pinned", pinnedSpans(), `{"displayTimeUnit":"ms","otherData":{"tool":"gpuwalk","kind":"spans","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"},
"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"10.0.0.1:8171"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"spans"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"gateway"}},
{"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"spans"}},
{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"unknown"}},
{"name":"thread_name","ph":"M","pid":3,"tid":0,"args":{"name":"spans"}},
{"name":"gateway.submit","cat":"span","ph":"X","ts":1772366400000000,"dur":2500,"pid":2,"tid":0,"args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba90201","request_id":"bench-1","code":202}},
{"name":"gateway.route","cat":"span","ph":"X","ts":1772366400000100,"dur":40,"pid":2,"tid":0,"args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba90202","parent_id":"00f067aa0ba90201"}},
{"name":"gateway.proxy","cat":"span","ph":"X","ts":1772366400000150,"dur":2000,"pid":2,"tid":0,"args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba90204","parent_id":"00f067aa0ba90201","node":"10.0.0.1:8171"}},
{"name":"cache.peer_fetch","cat":"span","ph":"X","ts":1772366400000300,"dur":1,"pid":3,"tid":0,"args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba90205","parent_id":"00f067aa0ba90203","error":"peer said \"no\" \u003chtml\u003e \u0026 more","empty":0,"zero":0}},
{"name":"submit","cat":"span","ph":"X","ts":1772366400000300,"dur":1200,"pid":1,"tid":0,"args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba90203","parent_id":"00f067aa0ba90204","job_id":"10.0.0.1:8171-j1","items":1}}
]}
`},
		{"empty", nil, `{"displayTimeUnit":"ms","otherData":{"tool":"gpuwalk","kind":"spans"},
"traceEvents":[

]}
`},
	} {
		var buf bytes.Buffer
		if err := WriteChromeSpans(&buf, tc.spans); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s: WriteChromeSpans output:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
		if err := CheckChrome(buf.Bytes()); err != nil {
			t.Errorf("%s: CheckChrome: %v", tc.name, err)
		}
	}
}
