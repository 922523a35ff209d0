// Package obs is the simulator's observability layer: a structured
// event tracer whose output opens directly in chrome://tracing or
// Perfetto (see chrome.go), and a registry of closure-sampled columns
// written per epoch as a CSV time series (see registry.go). The
// service side shares it: request spans (span.go) render through the
// same Chrome encoder, and labeled metric families (prom.go) serve
// /metrics; the HTTP middleware lives in the httpobs sub-package so
// the simulator never links net/http.
//
// Both are strictly opt-in. Every model component holds a *Tracer that
// is nil by default, and every hook site is guarded by a single pointer
// check:
//
//	if t := io.tr; t != nil {
//	    t.Instant(io.trkSched, "sched", "admit", obs.U64("vpn", vpn))
//	}
//
// so a build that never enables tracing pays one compare-and-branch per
// hook and nothing else — no allocation, no call. The overhead guard
// benchmark in the repository root asserts this stays under 2% on the
// scheduler's pick+admit hot path.
//
// Everything the tracer records is derived from the deterministic
// simulation (cycle timestamps, arrival sequence numbers), and events
// are kept in insertion order, so two runs of the same seeded workload
// produce byte-identical trace files. The golden-trace tests in the
// repository root pin that property down.
package obs

import (
	"fmt"

	"gpuwalk/internal/sim"
)

// DefaultEventLimit bounds a Tracer's in-memory event buffer. Events
// beyond the limit are counted in Dropped() and otherwise discarded.
const DefaultEventLimit = 1 << 20

// Track identifies one timeline row: a (process, thread) pair in the
// Chrome trace model. The zero Track is valid only as "unregistered";
// obtain real tracks from Tracer.NewTrack.
type Track struct {
	pid, tid int32
}

// Arg is one key/value annotation on an event or span. A non-empty
// Str takes precedence over Val when encoding.
type Arg struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Val uint64 `json:"val,omitempty"`
}

// U64 builds a numeric argument.
func U64(key string, val uint64) Arg { return Arg{Key: key, Val: val} }

// Str builds a string argument.
func Str(key, val string) Arg { return Arg{Key: key, Str: val} }

// Event phases, following the Chrome trace_event format.
const (
	PhaseInstant  = 'i' // point event on a track
	PhaseComplete = 'X' // duration event (start + dur)
	PhaseCounter  = 'C' // sampled counter series
	PhaseMeta     = 'M' // metadata (track names; emitted by the writer)
)

// Event is one recorded trace event.
type Event struct {
	Name  string
	Cat   string
	Phase byte
	TS    uint64 // cycle of the event (start cycle for Complete)
	Dur   uint64 // Complete events only
	Track Track
	Args  []Arg
}

// process is one named track group and its named threads.
type process struct {
	name    string
	threads []string
}

// Tracer records structured events against registered tracks. The zero
// value is not usable; construct with NewTracer. A Tracer is meant to
// observe exactly one run: attach it to a Config, run, then write the
// output. Methods are nil-safe so unconditional calls on a disabled
// (nil) tracer are harmless, but hot paths should guard with a pointer
// check instead (see the package comment).
type Tracer struct {
	now     func() sim.Cycle
	limit   int
	procs   []process
	events  []Event
	dropped uint64
	metas   []Arg // extra otherData entries (SetMeta)
}

// NewTracer returns an empty tracer with the default event limit.
func NewTracer() *Tracer { return &Tracer{limit: DefaultEventLimit} }

// SetLimit bounds the number of buffered events (0 restores the
// default). Events past the limit increment Dropped and are discarded.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultEventLimit
	}
	t.limit = n
}

// SetMeta attaches a key/value pair to the trace file's otherData
// object — the hook that links a sim trace to the service-level
// request that produced it (key "trace_id"). Later values for the
// same key win. Nil-safe.
func (t *Tracer) SetMeta(key, val string) {
	if t == nil {
		return
	}
	for i := range t.metas {
		if t.metas[i].Key == key {
			t.metas[i].Str = val
			return
		}
	}
	t.metas = append(t.metas, Str(key, val))
}

// Meta returns the otherData value set for key ("" if unset).
func (t *Tracer) Meta(key string) string {
	if t == nil {
		return ""
	}
	for i := range t.metas {
		if t.metas[i].Key == key {
			return t.metas[i].Str
		}
	}
	return ""
}

// Attach connects the tracer to a run's clock. The system under
// observation calls this once at construction; events recorded before
// Attach carry timestamp 0.
func (t *Tracer) Attach(now func() sim.Cycle) {
	if t == nil {
		return
	}
	t.now = now
}

// NewTrack registers (or reuses) the named process and adds a thread to
// it, returning the track handle. Registration order defines the pid
// and tid numbering, so components must register tracks in a
// deterministic order (construction order does this naturally).
func (t *Tracer) NewTrack(proc, thread string) Track {
	if t == nil {
		return Track{}
	}
	pi := -1
	for i := range t.procs {
		if t.procs[i].name == proc {
			pi = i
			break
		}
	}
	if pi == -1 {
		t.procs = append(t.procs, process{name: proc})
		pi = len(t.procs) - 1
	}
	p := &t.procs[pi]
	p.threads = append(p.threads, thread)
	return Track{pid: int32(pi + 1), tid: int32(len(p.threads) - 1)}
}

// clock returns the current cycle, or 0 before Attach.
func (t *Tracer) clock() uint64 {
	if t.now == nil {
		return 0
	}
	return uint64(t.now())
}

// record appends an event, honoring the buffer limit.
func (t *Tracer) record(e Event) {
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Instant records a point event at the current cycle.
func (t *Tracer) Instant(tr Track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(Event{Name: name, Cat: cat, Phase: PhaseInstant, TS: t.clock(), Track: tr, Args: args})
}

// Span records a duration event covering [start, end] cycles. end may
// lie in the simulated future (a component that knows its completion
// cycle at issue time may emit the whole span at once).
func (t *Tracer) Span(tr Track, cat, name string, start, end sim.Cycle, args ...Arg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.record(Event{
		Name: name, Cat: cat, Phase: PhaseComplete,
		TS: uint64(start), Dur: uint64(end - start), Track: tr, Args: args,
	})
}

// Counter records the current value of one or more counter series at
// the current cycle. Chrome aggregates counter events by (process,
// name), so give distinct counters distinct names.
func (t *Tracer) Counter(tr Track, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(Event{Name: name, Cat: "counter", Phase: PhaseCounter, TS: t.clock(), Track: tr, Args: args})
}

// Events returns the recorded events in insertion order. The slice is
// the tracer's own buffer; callers must not mutate it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns how many events were discarded at the buffer limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// TrackName returns the "process/thread" label of a track (for tests
// and tools).
func (t *Tracer) TrackName(tr Track) string {
	if t == nil || tr.pid < 1 || int(tr.pid) > len(t.procs) {
		return ""
	}
	p := t.procs[tr.pid-1]
	if tr.tid < 0 || int(tr.tid) >= len(p.threads) {
		return ""
	}
	return fmt.Sprintf("%s/%s", p.name, p.threads[tr.tid])
}
