package jobd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// panicRunner panics on specs with "panic":true and echoes the rest.
func panicRunner(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
	var s struct {
		Panic bool `json:"panic"`
	}
	_ = json.Unmarshal(spec, &s)
	if s.Panic {
		panic("spec told me to")
	}
	return spec, false, nil
}

// TestPanicIsolation: a panicking runner fails its own job — with the
// stack preserved and the metric bumped — and the daemon keeps serving
// other jobs.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Options{Runner: panicRunner, Workers: 1})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"panic":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID)
	if got.State != StateFailed {
		t.Fatalf("panicked job ended %s, want failed", got.State)
	}
	if !strings.Contains(got.Items[0].Error, "runner panicked: spec told me to") {
		t.Errorf("item error does not name the panic: %q", got.Items[0].Error)
	}
	if !strings.Contains(got.Items[0].Error, "goroutine") {
		t.Errorf("item error carries no stack trace: %.120q", got.Items[0].Error)
	}
	if n, _ := exposition(t, s).Sample("jobd_worker_panics_total"); n != 1 {
		t.Errorf("jobd_worker_panics_total = %v, want 1", n)
	}

	// The daemon survived: the next job runs normally.
	v2, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"ok":true}`)})
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	if got := waitTerminal(t, s, v2.ID); got.State != StateDone {
		t.Fatalf("job after panic ended %s (%s)", got.State, got.Error)
	}
}

// TestNoRetryForPermanentError: every failure is final. A job whose
// item fails runs once and ends failed with the plain item count; its
// event log never starts it a second time.
func TestNoRetryForPermanentError(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"fail":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID)
	if got.State != StateFailed || got.Error != "1 of 1 items failed" {
		t.Fatalf("failed job = %s %q, want failed %q", got.State, got.Error, "1 of 1 items failed")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("runner ran %d times, want 1", n)
	}
	s.mu.Lock()
	var types []string
	evs, _ := s.jobs[v.ID].events(0)
	for _, ev := range evs {
		types = append(types, ev.Type)
	}
	s.mu.Unlock()
	want := []string{EventQueued, EventStarted, EventItemDone, EventFailed}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("events = %v, want %v", types, want)
	}
}

// readSSEFrames reads SSE frames off a stream until the deadline,
// returning (id, event, data) triples. Progress events have id -1.
// (telemetry_test.go's readSSE drops the id line, which is the point
// of these tests.)
func readSSEFrames(t *testing.T, r *bufio.Reader, max int, until time.Duration) []sseFrame {
	t.Helper()
	var frames []sseFrame
	cur := sseFrame{id: -1}
	deadline := time.Now().Add(until)
	for len(frames) < max && time.Now().Before(deadline) {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{id: -1}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames
}

type sseFrame struct {
	id    int
	event string
	data  string
}

// TestSSEResumeFromLastEventID: a client reconnecting with
// Last-Event-ID sees no duplicate log events — the replay starts
// exactly after the ID it presented.
func TestSSEResumeFromLastEventID(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit(SubmitRequest{Specs: []json.RawMessage{
		json.RawMessage(`{"i":0}`), json.RawMessage(`{"i":1}`),
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v.ID)

	// First connection: read everything. Terminal log is queued,
	// started, item_done x2, done = 5 events with ids 0..4.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	all := readSSEFrames(t, bufio.NewReader(resp.Body), 16, 5*time.Second)
	resp.Body.Close()
	var logEvents []sseFrame
	for _, f := range all {
		if f.event != EventProgress {
			logEvents = append(logEvents, f)
		}
	}
	if len(logEvents) != 5 {
		t.Fatalf("full replay gave %d log events: %+v", len(logEvents), logEvents)
	}
	for i, f := range logEvents {
		if f.id != i {
			t.Fatalf("event %d has id %d; ids must be the log sequence", i, f.id)
		}
	}

	// Reconnect claiming we saw through id 2: only 3 and 4 replay.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := readSSEFrames(t, bufio.NewReader(resp2.Body), 16, 5*time.Second)
	resp2.Body.Close()
	var resumedLog []sseFrame
	for _, f := range resumed {
		if f.event != EventProgress {
			resumedLog = append(resumedLog, f)
		}
	}
	if len(resumedLog) != 2 || resumedLog[0].id != 3 || resumedLog[1].id != 4 {
		t.Fatalf("resume from id 2 replayed %+v, want ids 3 and 4 only", resumedLog)
	}

	// An out-of-range Last-Event-ID (stale after a daemon restart)
	// clamps instead of erroring or hanging.
	req3, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req3.Header.Set("Last-Event-ID", "999")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("stale Last-Event-ID got status %d", resp3.StatusCode)
	}
}

// TestClientOneRequestPerCall: a Client makes exactly one request per
// call and returns each backpressure rejection as the server's
// sentinel error. TestOverloadRejectionsSeparate and the benchmark's
// failed_frac count every rejection, so a retry would hide one.
func TestClientOneRequestPerCall(t *testing.T) {
	for code, sentinel := range map[int]error{
		http.StatusTooManyRequests:    ErrQueueFull,
		http.StatusServiceUnavailable: ErrDraining,
	} {
		var tries atomic.Int64
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			tries.Add(1)
			w.Header().Set("Retry-After", "0")
			httpError(w, code, sentinel.Error())
		})
		ts := httptest.NewServer(mux)
		c := &Client{BaseURL: ts.URL}
		_, err := c.Submit(context.Background(), SubmitRequest{Spec: json.RawMessage(`{}`)})
		ts.Close()
		if !errors.Is(err, sentinel) {
			t.Errorf("%d: err = %v, want %v", code, err, sentinel)
		}
		if n := tries.Load(); n != 1 {
			t.Errorf("%d: server saw %d requests, want exactly 1", code, n)
		}
	}
}

// TestClientNoRetryForBadRequest: a 400 (bad spec) is one request, and
// its error carries the server's message.
func TestClientNoRetryForBadRequest(t *testing.T) {
	var tries atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		tries.Add(1)
		httpError(w, http.StatusBadRequest, "bad spec")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL}
	_, err := c.Submit(context.Background(), SubmitRequest{Spec: json.RawMessage(`{}`)})
	if err == nil || !strings.Contains(err.Error(), "bad spec") {
		t.Fatalf("err = %v", err)
	}
	if tries.Load() != 1 {
		t.Fatalf("server saw %d tries for a 400, want 1", tries.Load())
	}
}
