package obs

// Rendering service spans in the same Chrome trace_event JSON the sim
// tracer emits, through the same encoder (chrome.go), so a job's
// request timeline opens in chrome://tracing or Perfetto with the
// exact tooling (and CheckChrome validator) the repository already
// has. Each service ("gateway", each node name) becomes one process
// row; timestamps are absolute wall-clock microseconds, so spans
// merged from several nodes line up as well as their clocks do.

import (
	"io"
	"sort"
)

// SpanDoc is the raw-span wire format served by a backend's
// GET /v1/jobs/{id}/trace?format=spans — what the cluster gateway
// fetches to merge a backend's spans with its own routing spans
// before rendering the combined Chrome trace.
type SpanDoc struct {
	TraceID string `json:"trace_id"`
	Service string `json:"service,omitempty"`
	Spans   []Span `json:"spans"`
}

// WriteChromeSpans renders completed spans as Chrome trace_event JSON.
// Spans may come from several services (gateway + backend merges); the
// output orders them by start time, then service, then name, then span
// ID, so a merged trace is independent of merge order.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := &sorted[i], &sorted[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID.String() < b.ID.String()
	})

	// Deterministic pid per service, in sorted order.
	services := make([]string, 0, 4)
	seen := map[string]int{}
	for i := range sorted {
		svc := sorted[i].Service
		if svc == "" {
			svc = "unknown"
			sorted[i].Service = svc
		}
		if _, ok := seen[svc]; !ok {
			seen[svc] = 0
			services = append(services, svc)
		}
	}
	sort.Strings(services)
	procs := make([]process, len(services))
	for i, svc := range services {
		seen[svc] = i + 1
		procs[i] = process{name: svc, threads: []string{"spans"}}
	}

	other := []Arg{Str("kind", "spans")}
	if len(sorted) > 0 {
		other = append(other, Str("trace_id", sorted[0].Trace.String()))
	}
	events := make([]Event, len(sorted))
	for i := range sorted {
		s := &sorted[i]
		args := make([]Arg, 0, 3+len(s.Attrs))
		args = append(args, Str("trace_id", s.Trace.String()), Str("span_id", s.ID.String()))
		if !s.Parent.IsZero() {
			args = append(args, Str("parent_id", s.Parent.String()))
		}
		events[i] = Event{
			Name: s.Name, Cat: "span", Phase: PhaseComplete,
			TS:    uint64(max(s.Start.UnixMicro(), 0)),
			Dur:   uint64(max(s.Dur.Microseconds(), 0)),
			Track: Track{pid: int32(seen[s.Service])},
			Args:  append(args, s.Attrs...),
		}
	}
	return writeChromeDoc(w, other, procs, events)
}
