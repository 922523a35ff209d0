package jobd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpuwalk/internal/obs"
)

// postJob submits one spec over HTTP with an optional traceparent and
// returns the decoded view plus the response.
func postJob(t *testing.T, ts *httptest.Server, spec string, traceparent string) (JobView, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		bytes.NewReader([]byte(`{"spec":`+spec+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return v, resp
}

func TestJobTraceEndpoint(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	remote := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	v, resp := postJob(t, ts, `{"x":1}`, remote.Traceparent())

	// The request ID derives from the trace ID when the client sent
	// none, so gateway and backend logs join without coordination.
	if got, want := resp.Header.Get("X-Request-Id"), obs.RequestIDFromTrace(remote.Trace); got != want {
		t.Fatalf("X-Request-Id = %q, want derived %q", got, want)
	}
	if v.TraceID != remote.Trace.String() {
		t.Fatalf("view trace_id = %q, want %s", v.TraceID, remote.Trace)
	}
	waitTerminal(t, s, v.ID)

	// Chrome rendering: well-formed, and every expected stage is there.
	tr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint returned %d: %s", tr.StatusCode, raw)
	}
	if err := obs.CheckChrome(raw); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}

	// Raw spans: names, shared trace ID, and parentage rooted at the
	// remote (client) span.
	sr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.SpanDoc
	if err := json.NewDecoder(sr.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding span doc: %v", err)
	}
	sr.Body.Close()
	if doc.TraceID != remote.Trace.String() {
		t.Fatalf("span doc trace = %q, want %s", doc.TraceID, remote.Trace)
	}
	byName := map[string]obs.Span{}
	for _, sp := range doc.Spans {
		if sp.Trace.String() != remote.Trace.String() {
			t.Fatalf("span %s has trace %s, want %s", sp.Name, sp.Trace, remote.Trace)
		}
		byName[sp.Name] = sp
	}
	for _, want := range []string{"submit", "queue.wait", "job.run", "item"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("span %q missing; got %v", want, names(doc.Spans))
		}
	}
	if got := byName["submit"].Parent; got != remote.Span {
		t.Fatalf("submit span parent = %s, want remote span %s", got, remote.Span)
	}
	if byName["queue.wait"].Parent != byName["submit"].ID {
		t.Fatal("queue.wait is not a child of submit")
	}
	if byName["item"].Parent != byName["job.run"].ID {
		t.Fatal("item is not a child of job.run")
	}

	// The stage histogram saw the stages.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		`jobd_stage_seconds_count{stage="submit"}`,
		`jobd_stage_seconds_count{stage="queue"}`,
		`jobd_stage_seconds_count{stage="exec"}`,
		"jobd_queue_depth_highwater",
		"jobd_sse_clients",
		"go_goroutines",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestSubmitSpanCoversSlowBody: the submit span opens before the
// request body is read, so a body that arrives slowly is time the
// backend's trace accounts for, not time outside every span.
func TestSubmitSpanCoversSlowBody(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const wait = 100 * time.Millisecond
	body, w := io.Pipe()
	go func() {
		io.WriteString(w, `{"spec":`)
		time.Sleep(wait)
		io.WriteString(w, `{"x":1}}`)
		w.Close()
	}()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit answered %d: %v", resp.StatusCode, err)
	}
	waitTerminal(t, s, v.ID)
	s.mu.Lock()
	buf := s.jobs[v.ID].trace
	s.mu.Unlock()
	for _, sp := range buf.Spans() {
		if sp.Name == spanSubmit {
			if sp.Dur < wait {
				t.Fatalf("submit span lasts %v, less than the %v its body took to arrive", sp.Dur, wait)
			}
			return
		}
	}
	t.Fatalf("no submit span in %v", names(buf.Spans()))
}

func names(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func TestJobTraceWithoutTraceparent(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No traceparent: the server starts the trace itself.
	v, _ := postJob(t, ts, `{"x":2}`, "")
	if v.TraceID == "" {
		t.Fatal("server did not mint a trace for an untraced submit")
	}
	waitTerminal(t, s, v.ID)
	sr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.SpanDoc
	if err := json.NewDecoder(sr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if len(doc.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	// A malformed traceparent is ignored the same way (fresh trace).
	v2, _ := postJob(t, ts, `{"x":3}`, "00-bogus-bogus-01")
	if v2.TraceID == "" || v2.TraceID == v.TraceID {
		t.Fatalf("malformed traceparent handled wrong: trace %q", v2.TraceID)
	}
}

func TestJobTraceDisabled(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1, SpanLimit: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, `{"x":1}`, "")
	if v.TraceID != "" {
		t.Fatalf("tracing disabled but view has trace_id %q", v.TraceID)
	}
	waitTerminal(t, s, v.ID)
	tr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint with tracing disabled returned %d, want 404", tr.StatusCode)
	}
}

func TestJobTraceUnknownJob(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace returned %d, want 404", tr.StatusCode)
	}
}

func TestClientSubmitInjectsTraceparent(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := &Client{BaseURL: ts.URL}
	v, err := c.Submit(t.Context(), SubmitRequest{Spec: json.RawMessage(`{"x":9}`)})
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID == "" {
		t.Fatal("client submit did not propagate a trace")
	}
	// A request without a traceparent: the server mints its own trace,
	// which is not the client's.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"spec":{"x":10}}`))
	if err != nil {
		t.Fatal(err)
	}
	var v2 JobView
	err = json.NewDecoder(resp.Body).Decode(&v2)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v2.TraceID == "" || v2.TraceID == v.TraceID {
		t.Fatalf("request without a traceparent got trace %q (the client's was %q)", v2.TraceID, v.TraceID)
	}
}
