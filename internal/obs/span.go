package obs

// This file is the service-level half of the observability layer: a
// lightweight distributed-tracing span model in the W3C Trace Context
// mold. Where the Tracer in obs.go records cycle-stamped events from
// one deterministic simulation, a SpanBuf records wall-clock stages of
// one request as it crosses the gateway, a backend's queue and worker
// pool, the result cache, and finally the simulation itself. The two
// meet in spanchrome.go (spans render as the same Chrome trace_event
// JSON) and via Tracer.SetMeta (a sim trace can carry the trace ID of
// the job that produced it).
//
// The discipline matches the sim tracer: every method on every type is
// nil-safe, so a server built with tracing disabled threads zero-value
// SpanRefs through the same code paths and pays one pointer compare
// per hook — no allocation, no lock. The overhead test in the
// repository root pins that down.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"
)

// TraceID identifies one end-to-end request across every hop. The zero
// value is invalid per the W3C spec.
type TraceID [16]byte

// SpanID identifies one span within a trace. The zero value is invalid.
type SpanID [8]byte

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// MarshalText implements encoding.TextMarshaler (hex).
func (t TraceID) MarshalText() ([]byte, error) {
	b := make([]byte, 32)
	hex.Encode(b, t[:])
	return b, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) != 32 {
		return fmt.Errorf("obs: trace id must be 32 hex chars, got %d", len(b))
	}
	_, err := hex.Decode(t[:], b)
	return err
}

// MarshalText implements encoding.TextMarshaler (hex).
func (s SpanID) MarshalText() ([]byte, error) {
	b := make([]byte, 16)
	hex.Encode(b, s[:])
	return b, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("obs: span id must be 16 hex chars, got %d", len(b))
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// NewTraceID returns a random, non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		if _, err := rand.Read(t[:]); err != nil {
			panic(err) // crypto/rand never fails on supported platforms
		}
	}
	return t
}

// NewSpanID returns a random, non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		if _, err := rand.Read(s[:]); err != nil {
			panic(err)
		}
	}
	return s
}

// SpanContext is the propagated half of a span: the trace it belongs
// to and its own ID, exactly what a traceparent header carries.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether both IDs are non-zero, per the W3C spec.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Span is one completed, named stage of a request.
type Span struct {
	Name    string        `json:"name"`
	Service string        `json:"service"`
	Trace   TraceID       `json:"trace_id"`
	ID      SpanID        `json:"span_id"`
	Parent  SpanID        `json:"parent_id,omitempty"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Attrs   []Arg         `json:"attrs,omitempty"`
}

// SpanBuf is a bounded, concurrency-safe buffer of completed spans for
// one trace, held by the job (or gateway trace store) that owns the
// request. All methods are nil-safe: a nil *SpanBuf is "tracing
// disabled" and every operation on it — and on the ActiveSpans and
// SpanRefs it hands out — is a no-op.
//
// A buffer lives as long as its retained job or trace, so it keeps each
// span as a compact record: the trace ID and service once per buffer,
// the start as Unix nanoseconds, and a store grown one record at a time
// while it holds the few spans a trace has. Spans builds full Spans.
type SpanBuf struct {
	mu      sync.Mutex
	service string
	trace   TraceID
	limit   int
	spans   []spanRecord
	onEnd   func(name string, d time.Duration)
}

// spanRecord is a completed span as a SpanBuf keeps it.
type spanRecord struct {
	name   string
	id     SpanID
	parent SpanID
	start  int64 // Unix nanoseconds
	dur    time.Duration
	attrs  []Arg
}

// DefaultSpanLimit bounds a SpanBuf unless overridden. A job passes
// through a few dozen stages even with retries; 256 leaves headroom
// while keeping a hostile retry loop from growing memory.
const DefaultSpanLimit = 256

// NewSpanBuf returns a buffer for one trace. service labels the
// emitting node ("gateway", the node name, ...). limit <= 0 selects
// DefaultSpanLimit.
func NewSpanBuf(service string, trace TraceID, limit int) *SpanBuf {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &SpanBuf{service: service, trace: trace, limit: limit}
}

// OnEnd installs a hook called (outside the buffer lock) with every
// span's name and duration as it ends — the bridge from spans to the
// per-stage latency histograms. Call before the buffer is shared.
func (b *SpanBuf) OnEnd(fn func(name string, d time.Duration)) {
	if b == nil {
		return
	}
	b.onEnd = fn
}

// Trace returns the buffer's trace ID (zero for nil).
func (b *SpanBuf) Trace() TraceID {
	if b == nil {
		return TraceID{}
	}
	return b.trace
}

// Service returns the buffer's service label.
func (b *SpanBuf) Service() string {
	if b == nil {
		return ""
	}
	return b.service
}

// Spans returns the completed spans in end order. Each Start is in
// local time, as time.Now reads it.
func (b *SpanBuf) Spans() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Span, len(b.spans))
	for i, r := range b.spans {
		out[i] = Span{Name: r.name, Service: b.service, Trace: b.trace, ID: r.id, Parent: r.parent,
			Start: time.Unix(0, r.start), Dur: r.dur, Attrs: r.attrs}
	}
	return out
}

// add appends a completed span, dropping it past the limit, and fires
// onEnd.
func (b *SpanBuf) add(r spanRecord) {
	b.mu.Lock()
	if n := len(b.spans); n < b.limit {
		if n == cap(b.spans) && n < 8 { // a few spans: grow by one
			b.spans = append(make([]spanRecord, 0, n+1), b.spans...)
		}
		b.spans = append(b.spans, r)
	}
	b.mu.Unlock()
	if b.onEnd != nil {
		b.onEnd(r.name, r.dur)
	}
}

// StartSpan opens a span under parent (zero parent = root) and returns
// its handle. The span is buffered only when End is called; durations
// come from the monotonic clock via time.Since.
func (b *SpanBuf) StartSpan(name string, parent SpanID, attrs ...Arg) *ActiveSpan {
	if b == nil {
		return nil
	}
	return &ActiveSpan{
		buf:   b,
		rec:   spanRecord{name: name, id: NewSpanID(), parent: parent, attrs: attrs},
		start: time.Now(),
	}
}

// ActiveSpan is an open span. End completes it; all methods tolerate a
// nil receiver and double-End.
type ActiveSpan struct {
	buf   *SpanBuf
	rec   spanRecord
	start time.Time // with the monotonic reading End measures from
	ended bool
	mu    sync.Mutex
}

// ID returns the span's ID (zero for nil).
func (a *ActiveSpan) ID() SpanID {
	if a == nil {
		return SpanID{}
	}
	return a.rec.id
}

// End completes the span, appending any final attributes. Duration is
// measured on the monotonic clock. Second and later calls are no-ops.
func (a *ActiveSpan) End(attrs ...Arg) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	r := a.rec
	a.mu.Unlock()
	r.start, r.dur = a.start.UnixNano(), time.Since(a.start)
	if len(attrs) > 0 {
		r.attrs = slices.Concat(r.attrs, attrs)
	}
	a.buf.add(r)
}

// SpanRef is the context-carried handle lower layers use to hang child
// spans off the current stage: the buffer plus the would-be parent's
// ID. The zero SpanRef is "tracing disabled" and is what SpanRefFrom
// returns for a bare context; Start on it is a no-op returning nil.
type SpanRef struct {
	Buf  *SpanBuf
	Span SpanID
}

// Valid reports whether the ref can record spans.
func (r SpanRef) Valid() bool { return r.Buf != nil }

// Start opens a child span under the ref's span. Returns nil (safe to
// End) when the ref is zero.
func (r SpanRef) Start(name string, attrs ...Arg) *ActiveSpan {
	if r.Buf == nil {
		return nil
	}
	return r.Buf.StartSpan(name, r.Span, attrs...)
}

// spanRefCtxKey keys the SpanRef carried through a request context,
// mirroring the jobd progress-sink plumbing.
type spanRefCtxKey struct{}

// ContextWithSpanRef returns ctx carrying r. A zero r returns ctx
// unchanged so disabled paths allocate nothing.
func ContextWithSpanRef(ctx context.Context, r SpanRef) context.Context {
	if r.Buf == nil {
		return ctx
	}
	return context.WithValue(ctx, spanRefCtxKey{}, r)
}

// SpanRefFrom returns the SpanRef carried by ctx, or the zero ref.
func SpanRefFrom(ctx context.Context) SpanRef {
	r, _ := ctx.Value(spanRefCtxKey{}).(SpanRef)
	return r
}

// RequestIDFromTrace derives a stable request ID from a trace ID, so
// every hop that sees the same traceparent without an X-Request-Id
// mints the same ID and gateway/backend log lines join on one key.
func RequestIDFromTrace(t TraceID) string {
	return "t" + hex.EncodeToString(t[:8])
}
