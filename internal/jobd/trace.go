package jobd

// Request tracing for the job service: every job carries a bounded
// obs.SpanBuf recording the wall-clock stages it passes through —
// submit (HTTP handling, the cache probe, the journal fsync), queue
// wait, the run, per-item execution (with cache/sim child spans hung
// off the context by the runner) — all under one W3C trace ID
// continued from the caller's traceparent header. The completed timeline is served by
// GET /v1/jobs/{id}/trace as Chrome trace_event JSON (or raw spans
// with ?format=spans, which the cluster gateway merges with its own
// routing spans).
//
// Tracing is on by default and disabled with Options.SpanLimit < 0;
// disabled servers never allocate a buffer, and every span call site
// is nil-safe, so the disabled path costs one pointer compare (the
// overhead guard in the repository root pins this).

import (
	"net/http"
	"time"

	"gpuwalk/internal/obs"
)

// Span names emitted by the server. The gateway adds gateway.submit /
// gateway.route / gateway.proxy, and runners add cache.lookup /
// cache.peer_fetch / cache.put / sim.run via the context span ref.
const (
	spanSubmit    = "submit"
	spanQueueWait = "queue.wait"
	spanJobRun    = "job.run"
	spanItem      = "item"
	spanJournal   = "journal.append"
)

// stageForSpan maps span names onto the bounded stage label of the
// jobd_stage_seconds histogram. Span names without a stage (item — it
// duplicates exec) are not observed.
func stageForSpan(name string) string {
	switch name {
	case spanQueueWait:
		return "queue"
	case spanJobRun:
		return "exec"
	case spanJournal:
		return "journal"
	case spanSubmit:
		return "submit"
	case "cache.lookup", "cache.put":
		return "cache"
	case "cache.peer_fetch":
		return "peer"
	case "sim.run":
		return "sim"
	}
	return ""
}

// tracingEnabled reports whether new jobs get span buffers.
func (s *Server) tracingEnabled() bool { return s.opts.SpanLimit >= 0 }

// startSubmit opens a submission's trace: the span buffer that becomes
// its job's, continuing the remote trace when the traceparent is valid,
// and the submit span, which the caller ends. Both are nil untraced.
func (s *Server) startSubmit(remote obs.SpanContext, reqID string) (*obs.SpanBuf, *obs.ActiveSpan) {
	if !s.tracingEnabled() {
		return nil, nil
	}
	traceID := remote.Trace
	if traceID.IsZero() {
		traceID = obs.NewTraceID()
	}
	service := s.opts.NodeName
	if service == "" {
		service = "jobd"
	}
	buf := obs.NewSpanBuf(service, traceID, s.opts.SpanLimit)
	buf.OnEnd(s.metrics.observeStage)
	return buf, buf.StartSpan(spanSubmit, remote.Span, obs.Str("request_id", reqID))
}

// journalSpan wraps one journal append in a journal.append span.
func journalSpan(buf *obs.SpanBuf, parent obs.SpanID, record string, fn func() error) error {
	sp := buf.StartSpan(spanJournal, parent, obs.Str("record", record))
	err := fn()
	if err != nil {
		sp.End(obs.Str("error", err.Error()))
		return err
	}
	sp.End()
	return err
}

// handleJobTrace serves a completed (or in-flight) job's span
// timeline. The default rendering is Chrome trace_event JSON, ready
// for chrome://tracing or Perfetto; ?format=spans returns the raw
// span list (obs.SpanDoc) for the gateway's merge path.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var buf *obs.SpanBuf
	if ok {
		buf = j.trace
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if buf == nil {
		// Tracing disabled, or a journal-recovered job (its pre-crash
		// spans died with the old process).
		httpError(w, http.StatusNotFound, "no trace recorded for this job")
		return
	}
	spans := buf.Spans()
	if r.URL.Query().Get("format") == "spans" {
		writeJSON(w, http.StatusOK, obs.SpanDoc{
			TraceID: buf.Trace().String(),
			Service: buf.Service(),
			Spans:   spans,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeSpans(w, spans)
}

// observeStage feeds span durations into jobd_stage_seconds.
func (m *serverMetrics) observeStage(name string, d time.Duration) {
	if stage := stageForSpan(name); stage != "" {
		m.stageSeconds.With(stage).Observe(d.Seconds())
	}
}

// noteQueueDepth updates the queue-depth gauge and its high-water
// mark. Callers hold the server lock, so the read-modify-write on the
// high-water gauge is ordered.
func (m *serverMetrics) noteQueueDepth(n int) {
	m.queued.Set(float64(n))
	if float64(n) > m.queueHigh.Gauge() {
		m.queueHigh.Set(float64(n))
	}
}
