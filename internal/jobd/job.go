// Package jobd is a small job service for batch simulation: a bounded
// priority queue feeding a context-aware worker pool, fronted by an
// HTTP JSON API with per-job server-sent event streams.
//
// jobd knows nothing about simulations. Work arrives as opaque JSON
// specs and is executed by an injected Runner; cmd/gpuwalkd wires the
// runner to gpuwalk.RunCachedJSON so identical specs short-circuit into
// the persistent result cache, and the Lookup hook to
// gpuwalk.LookupCachedJSON so a job whose every spec is cached is done
// at admission.
package jobd

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"gpuwalk/internal/obs"
)

// State is a job's lifecycle phase.
type State string

// Job states. Terminal states are done, failed and cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Item is one unit of work within a job: a single spec for a plain
// submission, one point of the grid for a sweep.
type Item struct {
	// Spec is the opaque payload handed to the Runner, compacted and
	// HTML-escaped as encoding/json writes it.
	Spec json.RawMessage `json:"spec"`
	// Result is the Runner's output once the item has run, in the same
	// form.
	Result json.RawMessage `json:"result,omitempty"`
	// CacheHit reports whether the Runner served this item from its
	// result cache rather than computing it.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is the Runner's error text, if the item failed.
	Error string `json:"error,omitempty"`
	// Done reports whether the item has finished (successfully or not).
	Done bool `json:"done"`
}

// Event is one entry in a job's event log, which is derived from the
// job's state (job.events). Events are totally ordered per job by Seq;
// the SSE endpoint replays the log and then streams it as the job moves.
type Event struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Event types appended over a job's life.
const (
	EventQueued    = "queued"    // job admitted to the queue
	EventStarted   = "started"   // a worker picked the job up
	EventItemDone  = "item_done" // one item finished; data = {index, cache_hit, error?}
	EventDone      = "done"      // terminal: all items succeeded
	EventFailed    = "failed"    // terminal: at least one item failed; data = {failed}
	EventCancelled = "cancelled" // terminal: drain or timeout cancelled the job

	// EventProgress is a synthetic SSE-only event type: live telemetry
	// emitted while a job runs (and once before its terminal event).
	// Progress events are never appended to the job's event log and
	// carry no id line, so reconnecting clients cannot resume from one.
	EventProgress = "progress"
)

// PanicError is the error a job item carries when its Runner panicked.
// The worker recovers the panic — one bad spec or a bug on one code
// path must fail that job, not kill the daemon and every other job
// with it — and preserves the stack for the post-mortem.
type PanicError struct {
	// Value is the panic value, stringified.
	Value string
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return "jobd: runner panicked: " + e.Value + "\n" + e.Stack
}

// job is the server-side record. All fields are guarded by the
// server's mutex; the exported snapshot type below is what handlers
// marshal.
type job struct {
	id       string
	priority int
	timeout  time.Duration
	seq      uint64 // admission order, tie-break within a priority
	state    State
	err      string
	items    []Item
	// probed holds the results of the job's leading items that the
	// admission probe found cached, in wire form; the worker finishes
	// those items with them instead of running them again.
	probed []json.RawMessage
	// recovered marks a job re-enqueued from the journal after a
	// restart rather than submitted over the API.
	recovered bool
	// changed is closed, and cleared, at the job's next transition;
	// SSE streams blocked on new events wait on it (subscribe).
	changed chan struct{}

	// prog is the job's live telemetry. Unlike every other field it is
	// NOT guarded by the server mutex: it is all atomics, written by
	// the runner's goroutine and read by HTTP handlers.
	prog progressTracker

	// trace is the job's span buffer, nil when tracing is disabled (or
	// the job predates this daemon's life and was journal-recovered).
	// The pointer is set before the job is published and never changes,
	// so it is read without the server lock; the buffer itself is
	// internally synchronized. The ActiveSpan handles below ARE guarded
	// by the server lock (only lifecycle transitions touch them).
	trace     *obs.SpanBuf
	root      obs.SpanID      // submit span: parent of the job-level spans
	queueSpan *obs.ActiveSpan // open while the job waits for a worker
	runSpan   *obs.ActiveSpan // open while the job runs

	created  time.Time
	started  time.Time
	finished time.Time
}

// JobView is the wire representation of a job.
type JobView struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority int    `json:"priority"`
	Error    string `json:"error,omitempty"`
	Items    []Item `json:"items"`
	// ItemsDone counts finished items, for cheap progress polling.
	ItemsDone int `json:"items_done"`
	// CacheHits counts items served from the result cache.
	CacheHits int `json:"cache_hits"`
	// Recovered marks a job re-enqueued from the durable journal after
	// a daemon restart.
	Recovered bool `json:"recovered,omitempty"`
	// Progress is the job's live telemetry, present once the runner has
	// reported (and kept, frozen, after the job finishes).
	Progress *ProgressView `json:"progress,omitempty"`
	// Node names the server that holds this job (Options.NodeName).
	// Empty on standalone daemons; in a cluster it tells gateway clients
	// and tests where consistent-hash routing actually placed the job.
	Node string `json:"node,omitempty"`
	// TraceID is the job's W3C trace ID (continued from the submitter's
	// traceparent header, or minted at admission). The span timeline is
	// at GET /v1/jobs/{id}/trace. Empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// view snapshots the job for marshalling; node is the serving node's
// name (Options.NodeName). Caller holds the server lock.
func (j *job) view(node string) JobView {
	v := JobView{
		ID:        j.id,
		State:     j.state,
		Priority:  j.priority,
		Error:     j.err,
		Items:     append([]Item(nil), j.items...),
		Created:   j.created,
		Recovered: j.recovered,
		Progress:  j.prog.snapshot(time.Now()),
		Node:      node,
		TraceID:   j.traceID(),
	}
	for _, it := range j.items {
		if it.Done {
			v.ItemsDone++
		}
		if it.CacheHit {
			v.CacheHits++
		}
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// traceID returns the job's trace ID as hex, "" when untraced.
func (j *job) traceID() string {
	if j.trace == nil {
		return ""
	}
	return j.trace.Trace().String()
}

// cancelledPrefix starts a cancelled job's error; the reason follows.
const cancelledPrefix = "job cancelled: "

// events returns the job's event log from seq from on, and its length,
// derived from the job's state: queued {items[, recovered]}; started;
// item_done {cache_hit, error, index} per finished item, in the index
// order items finish in (a failed item reports no hit, as its view
// does); then done, failed {failed} or cancelled {reason}. Caller holds
// the server lock.
func (j *job) events(from int) (log []Event, n int) {
	add := func(typ string, data []byte) {
		if n >= from {
			log = append(log, Event{Seq: n, Type: typ, Data: data})
		}
		n++
	}
	recovered := ""
	if j.recovered {
		recovered = `,"recovered":true`
	}
	add(EventQueued, fmt.Appendf(nil, `{"items":%d%s}`, len(j.items), recovered))
	if !j.started.IsZero() {
		add(EventStarted, nil)
	}
	failed := 0
	for i, it := range j.items {
		if it.Error != "" {
			failed++
		}
		if it.Done {
			d := appendString(fmt.Appendf(nil, `{"cache_hit":%t,"error":`, it.CacheHit), it.Error)
			add(EventItemDone, fmt.Appendf(d, `,"index":%d}`, i))
		}
	}
	switch j.state {
	case StateDone:
		add(EventDone, nil)
	case StateFailed:
		add(EventFailed, fmt.Appendf(nil, `{"failed":%d}`, failed))
	case StateCancelled:
		reason := strings.TrimPrefix(j.err, cancelledPrefix)
		add(EventCancelled, append(appendString([]byte(`{"reason":`), reason), '}'))
	}
	return log, n
}

// notify wakes the SSE streams waiting for the job's next transition.
// Caller holds the server lock.
func (j *job) notify() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// subscribe returns a channel closed at the job's next transition. A
// stream that stops waiting just drops it. Caller holds the server lock.
func (j *job) subscribe() <-chan struct{} {
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.changed
}
