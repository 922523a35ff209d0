package jobd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// transientError is the stand-in for a watchdog stall: a typed error a
// Retryable classifier can pick out with errors.As.
type transientError struct{ msg string }

func (e *transientError) Error() string { return e.msg }

// flakyRunner fails each spec's first failN calls with a transient
// error, then succeeds. Specs: {"failN": 2} fails twice, then echoes.
func flakyRunner(calls *atomic.Int64, perSpec map[string]*atomic.Int64) Runner {
	return func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		calls.Add(1)
		var s struct {
			FailN int  `json:"failN"`
			Panic bool `json:"panic"`
		}
		_ = json.Unmarshal(spec, &s)
		if s.Panic {
			panic("spec told me to")
		}
		key := string(spec)
		c := perSpec[key]
		if c == nil {
			c = &atomic.Int64{}
			perSpec[key] = c
		}
		if n := c.Add(1); int(n) <= s.FailN {
			return nil, false, &transientError{msg: fmt.Sprintf("transient glitch %d", n)}
		}
		return spec, false, nil
	}
}

func retryableTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// TestPanicIsolation: a panicking runner fails its own job — with the
// stack preserved and the metric bumped — and the daemon keeps serving
// other jobs.
func TestPanicIsolation(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{
		Runner:  flakyRunner(&calls, map[string]*atomic.Int64{}),
		Workers: 1,
	})
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
	if n := s.metrics.panics.Count(); n != 1 {
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

// TestRetryTransientFailure: a job whose failures all classify
// transient requeues with backoff and succeeds on a later attempt,
// with the attempt count on the job view and the retrying event in
// the log.
func TestRetryTransientFailure(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{
		Runner:         flakyRunner(&calls, map[string]*atomic.Int64{}),
		Workers:        1,
		Retryable:      retryableTransient,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"failN":2}`)})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID)
	if got.State != StateDone {
		t.Fatalf("flaky job ended %s (%s), want done after retries", got.State, got.Error)
	}
	if got.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two transient failures)", got.Attempts)
	}
	if n := s.metrics.retries.Count(); n != 2 {
		t.Errorf("jobd_job_retries_total = %v, want 2", n)
	}
	// The event log tells the story: queued, started, retrying (x2,
	// with attempt and delay), ..., done.
	s.mu.Lock()
	j := s.jobs[v.ID]
	var retrying []Event
	for _, ev := range j.events {
		if ev.Type == EventRetrying {
			retrying = append(retrying, ev)
		}
	}
	s.mu.Unlock()
	if len(retrying) != 2 {
		t.Fatalf("event log has %d retrying events, want 2", len(retrying))
	}
	var data struct {
		Attempt int    `json:"attempt"`
		DelayMS int64  `json:"delay_ms"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(retrying[0].Data, &data); err != nil {
		t.Fatal(err)
	}
	if data.Attempt != 1 || !strings.Contains(data.Error, "transient glitch") {
		t.Errorf("first retrying event = %+v", data)
	}
}

// TestRetryExhaustion: transient failures past MaxAttempts fail the
// job, and the error says which attempt gave up.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{
		Runner:         flakyRunner(&calls, map[string]*atomic.Int64{}),
		Workers:        1,
		Retryable:      retryableTransient,
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
	})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"failN":99}`)})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID)
	if got.State != StateFailed {
		t.Fatalf("exhausted job ended %s, want failed", got.State)
	}
	if got.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", got.Attempts)
	}
	if !strings.Contains(got.Error, "attempt 2 of 2") {
		t.Errorf("error does not name the exhausted budget: %q", got.Error)
	}
	if calls.Load() != 2 {
		t.Errorf("runner ran %d times, want 2", calls.Load())
	}
}

// TestNoRetryForPermanentError: when any failed item classifies as
// permanent, the job fails on the first attempt even with retries
// configured.
func TestNoRetryForPermanentError(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{
		Runner:         echoRunner(&calls), // "fail":true → plain errors.New
		Workers:        1,
		Retryable:      retryableTransient,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
	})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"fail":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID)
	if got.State != StateFailed {
		t.Fatalf("permanent-failure job ended %s, want failed", got.State)
	}
	if got.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (permanent errors must not retry)", got.Attempts)
	}
}

// TestRetrySkipsFinishedItems: on a retry run, items that already
// succeeded keep their results and do not re-run.
func TestRetrySkipsFinishedItems(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{
		Runner:         flakyRunner(&calls, map[string]*atomic.Int64{}),
		Workers:        1,
		Retryable:      retryableTransient,
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
	})
	v, err := s.Submit(SubmitRequest{Specs: []json.RawMessage{
		json.RawMessage(`{"i":0}`),
		json.RawMessage(`{"failN":1}`),
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID)
	if got.State != StateDone {
		t.Fatalf("job ended %s (%s)", got.State, got.Error)
	}
	// Item 0 ran once (attempt 1), item 1 ran twice: 3 runner calls.
	if calls.Load() != 3 {
		t.Errorf("runner ran %d times, want 3 (finished item must not re-run)", calls.Load())
	}
	if string(got.Items[0].Result) != `{"i":0}` {
		t.Errorf("finished item lost its result across the retry: %s", got.Items[0].Result)
	}
}

// TestDrainCancelsBackoffJobs: jobs waiting out a retry delay are
// settled (cancelled) by Drain, not leaked as stuck-queued forever.
func TestDrainCancelsBackoffJobs(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{
		Runner:         flakyRunner(&calls, map[string]*atomic.Int64{}),
		Workers:        1,
		Retryable:      retryableTransient,
		MaxAttempts:    5,
		RetryBaseDelay: time.Hour, // the timer must never fire on its own
	})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"failN":99}`)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to enter backoff.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		_, inBackoff := s.backoff[v.ID]
		s.mu.Unlock()
		if inBackoff {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never entered backoff")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not finish: %v", err)
	}
	got, ok := s.Job(v.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if got.State != StateCancelled {
		t.Fatalf("backoff job ended %s after drain, want cancelled", got.State)
	}
	if g := s.metrics.backoff.Gauge(); g != 0 {
		t.Errorf("jobd_jobs_backoff = %v after drain, want 0", g)
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

// TestClientRetryBackpressure: a client with a RetryPolicy rides out
// 429s and lands the submission when the queue opens up.
func TestClientRetryBackpressure(t *testing.T) {
	var rejections atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if rejections.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			httpError(w, http.StatusTooManyRequests, ErrQueueFull.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, JobView{ID: "j000001", State: StateQueued})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Retry: &RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		jitter:      func() float64 { return 0 },
	}}
	v, err := c.Submit(context.Background(), SubmitRequest{Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatalf("submit through backpressure: %v", err)
	}
	if v.ID != "j000001" {
		t.Fatalf("got job %q", v.ID)
	}
	if rejections.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 rejections + success)", rejections.Load())
	}
}

// TestClientRetryExhaustion: when the server never relents, the final
// error still matches the sentinel so callers can errors.Is it.
func TestClientRetryExhaustion(t *testing.T) {
	var tries atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		tries.Add(1)
		w.Header().Set("Retry-After", "0")
		httpError(w, http.StatusTooManyRequests, ErrQueueFull.Error())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Retry: &RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		jitter:      func() float64 { return 0 },
	}}
	_, err := c.Submit(context.Background(), SubmitRequest{Spec: json.RawMessage(`{}`)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("exhausted retries: err = %v, want ErrQueueFull", err)
	}
	if tries.Load() != 3 {
		t.Fatalf("server saw %d tries, want 3", tries.Load())
	}
}

// TestClientNoRetryWithoutPolicy: the zero-value client keeps the
// single-try contract — rejections surface immediately, which
// TestOverloadRejectionsSeparate depends on to count them as
// rejections.
func TestClientNoRetryWithoutPolicy(t *testing.T) {
	var tries atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		tries.Add(1)
		w.Header().Set("Retry-After", "0")
		httpError(w, http.StatusTooManyRequests, ErrQueueFull.Error())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL}
	_, err := c.Submit(context.Background(), SubmitRequest{Spec: json.RawMessage(`{}`)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if tries.Load() != 1 {
		t.Fatalf("server saw %d tries, want exactly 1", tries.Load())
	}
}

// TestClientRetryNonRetryableStatus: a 400 (bad spec) must not retry —
// resubmitting a malformed job N times is pure waste.
func TestClientRetryNonRetryableStatus(t *testing.T) {
	var tries atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		tries.Add(1)
		httpError(w, http.StatusBadRequest, "bad spec")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Retry: &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}}
	_, err := c.Submit(context.Background(), SubmitRequest{Spec: json.RawMessage(`{}`)})
	if err == nil || !strings.Contains(err.Error(), "bad spec") {
		t.Fatalf("err = %v", err)
	}
	if tries.Load() != 1 {
		t.Fatalf("server saw %d tries for a 400, want 1", tries.Load())
	}
}

// TestClientRetryContextCancel: a cancelled context aborts the backoff
// sleep promptly and the error names both the cause and the last
// server response.
func TestClientRetryContextCancel(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Retry: &RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   time.Hour, // the sleep must be cut short by ctx
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, SubmitRequest{Spec: json.RawMessage(`{}`)})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ctx cancel took %v to abort the backoff", elapsed)
	}
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want to match ErrDraining", err)
	}
}

// TestClientRetryAfterHonored: the server's Retry-After drives the
// delay rather than the exponential schedule.
func TestClientRetryAfterHonored(t *testing.T) {
	p := &RetryPolicy{BaseDelay: time.Hour, MaxDelay: 10 * time.Second}
	if d := p.delay(1, "2"); d != 2*time.Second {
		t.Errorf("Retry-After: 2 gave delay %v, want 2s", d)
	}
	// Retry-After beyond MaxDelay clamps.
	if d := p.delay(1, "60"); d != 10*time.Second {
		t.Errorf("Retry-After: 60 gave delay %v, want the 10s cap", d)
	}
	// No header: exponential with full jitter in [d/2, d).
	p2 := &RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for attempt, want := range map[int]time.Duration{1: 100 * time.Millisecond, 2: 200 * time.Millisecond, 4: 800 * time.Millisecond, 8: time.Second} {
		for i := 0; i < 20; i++ {
			d := p2.delay(attempt, "")
			if d < want/2 || d >= want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, want/2, want)
			}
		}
	}
}
