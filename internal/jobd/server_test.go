package jobd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuwalk/internal/obs"
)

// echoRunner returns the spec back as the result, counting calls.
// A spec of {"fail":true} errors; {"block":true} blocks until ctx
// cancellation; {"hit":true} reports a cache hit.
func echoRunner(calls *atomic.Int64) Runner {
	return func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		calls.Add(1)
		var s struct {
			Fail  bool `json:"fail"`
			Block bool `json:"block"`
			Hit   bool `json:"hit"`
		}
		_ = json.Unmarshal(spec, &s)
		if s.Fail {
			return nil, false, errors.New("boom")
		}
		if s.Block {
			<-ctx.Done()
			return nil, false, ctx.Err()
		}
		return spec, s.Hit, nil
	}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsJob(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 2})

	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != StateDone {
		t.Fatalf("state = %s (%s), want done", v.State, v.Error)
	}
	if got := string(v.Items[0].Result); got != `{"x":1}` {
		t.Fatalf("result = %s", got)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner ran %d times", calls.Load())
	}
}

func TestSweepAndCacheHits(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})

	v, err := s.Submit(SubmitRequest{Specs: []json.RawMessage{
		json.RawMessage(`{"x":1}`),
		json.RawMessage(`{"hit":true}`),
		json.RawMessage(`{"x":3}`),
	}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != StateDone || v.ItemsDone != 3 || v.CacheHits != 1 {
		t.Fatalf("view = %+v, want done with 3 items, 1 cache hit", v)
	}
}

func TestFailedItemFailsJob(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})

	v, err := s.Submit(SubmitRequest{Specs: []json.RawMessage{
		json.RawMessage(`{"fail":true}`),
		json.RawMessage(`{"x":2}`),
	}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	// A failed item does not stop the sweep: the second item still ran.
	if !v.Items[1].Done || v.Items[1].Error != "" {
		t.Fatalf("item 1 = %+v, want completed", v.Items[1])
	}
	if v.Items[0].Error != "boom" {
		t.Fatalf("item 0 error = %q", v.Items[0].Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})
	cases := []SubmitRequest{
		{},
		{Spec: json.RawMessage(`{}`), Specs: []json.RawMessage{json.RawMessage(`{}`)}},
		{Spec: json.RawMessage(`{}`), Timeout: "not-a-duration"},
		{Spec: json.RawMessage(`{}`), Timeout: "-3s"},
		{Specs: []json.RawMessage{json.RawMessage(`{}`), json.RawMessage(`{"cut`)}},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d: Submit accepted an invalid request", i)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	started := make(chan struct{})
	runner := func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		var s struct {
			Name  string `json:"name"`
			Block bool   `json:"block"`
		}
		_ = json.Unmarshal(spec, &s)
		if s.Block {
			close(started)
			<-ctx.Done()
			return nil, false, ctx.Err()
		}
		mu.Lock()
		ran = append(ran, s.Name)
		mu.Unlock()
		return spec, false, nil
	}
	s := newTestServer(t, Options{Runner: runner, Workers: 1})

	// The blocker occupies the single worker until its 100ms timeout
	// cancels it; everything submitted meanwhile queues up behind it.
	if _, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"block":true}`), Timeout: "100ms"}); err != nil {
		t.Fatal(err)
	}
	<-started
	var last JobView
	submit := func(name string, prio int) {
		t.Helper()
		v, err := s.Submit(SubmitRequest{
			Spec:     json.RawMessage(fmt.Sprintf(`{"name":%q}`, name)),
			Priority: prio,
		})
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	submit("low-a", 0)
	submit("high", 10)
	submit("low-b", 0)
	submit("mid", 5)

	waitTerminal(t, s, last.ID)
	// The last submission finishing doesn't mean all four have; poll
	// until every name has been recorded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(ran)
		mu.Unlock()
		if n == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d jobs ran", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high", "mid", "low-a", "low-b"}
	if strings.Join(ran, ",") != strings.Join(want, ",") {
		t.Fatalf("run order = %v, want %v (priority desc, FIFO within a priority)", ran, want)
	}
}

func TestQueueBound(t *testing.T) {
	// Buffered so the first runner's signal is kept even when the test
	// has not reached its receive yet; later signals are dropped.
	started := make(chan struct{}, 1)
	runner := func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, false, ctx.Err()
	}
	s := newTestServer(t, Options{Runner: runner, Workers: 1, QueueSize: 2})

	// One job runs (occupying the worker), two fill the queue.
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-started // ensure it left the queue before the next submit
		}
	}
	_, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit = %v, want ErrQueueFull", err)
	}
}

func TestJobTimeoutCancels(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"block":true}`), Timeout: "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	if v.Items[0].Done {
		t.Fatal("timed-out item marked done")
	}
}

func TestDrainFinishesInFlightCancelsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	runner := func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		started <- struct{}{}
		select {
		case <-release:
			return json.RawMessage(`"finished"`), false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	s := newTestServer(t, Options{Runner: runner, Workers: 1})

	inflight, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Submissions during a drain are rejected.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}

	// The in-flight job finishes (not cancelled) once released.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if v := waitTerminal(t, s, inflight.ID); v.State != StateDone {
		t.Fatalf("in-flight job = %s, want done", v.State)
	}
	if v := waitTerminal(t, s, queued.ID); v.State != StateCancelled {
		t.Fatalf("queued job = %s, want cancelled", v.State)
	}
}

func TestDrainDeadlineAbortsInFlight(t *testing.T) {
	started := make(chan struct{})
	runner := func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		close(started)
		<-ctx.Done() // never finishes voluntarily
		return nil, false, ctx.Err()
	}
	s := newTestServer(t, Options{Runner: runner, Workers: 1})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}
	if v = waitTerminal(t, s, v.ID); v.State != StateCancelled {
		t.Fatalf("aborted job = %s, want cancelled", v.State)
	}
}

func TestHTTPSubmitAndFetch(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"x":1},"priority":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.ID == "" || v.Priority != 3 {
		t.Fatalf("submitted view = %+v", v)
	}

	waitTerminal(t, s, v.ID)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The result goes out as the runner returned it, byte for byte.
	if v.State != StateDone || string(v.Items[0].Result) != `{"x":1}` {
		t.Fatalf("fetched view = %+v", v)
	}

	// Unknown fields and unknown jobs are rejected.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{},"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus field status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status = %d", resp.StatusCode)
	}
}

func TestHTTPEventsStream(t *testing.T) {
	release := make(chan struct{})
	runner := func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		<-release
		return spec, true, nil
	}
	s := newTestServer(t, Options{Runner: runner})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe while the job is still running, then let it finish:
	// the stream must replay the backlog and then deliver the rest.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	close(release)

	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			types = append(types, strings.TrimPrefix(line, "event: "))
		}
	}
	want := []string{EventQueued, EventStarted, EventItemDone, EventDone}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event types = %v, want %v", types, want)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"hit":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v.ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypeProm {
		t.Fatalf("metrics Content-Type = %q, want %q", ct, obs.ContentTypeProm)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics output is not valid Prometheus text: %v", err)
	}
	for key, want := range map[string]float64{
		`jobd_jobs_submitted_total`:              1,
		`jobd_jobs_finished_total{state="done"}`: 1,
		`jobd_item_cache_total{result="hit"}`:    1,
		`jobd_items_total{outcome="ok"}`:         1,
		`jobd_jobs_running`:                      0,
	} {
		got, ok := prom.Sample(key)
		if !ok || got != want {
			t.Fatalf("metric %s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if n, ok := prom.Sample(`jobd_job_duration_seconds_count{state="done"}`); !ok || n != 1 {
		t.Fatalf("duration histogram count = %v (present=%v), want 1", n, ok)
	}
	if up, ok := prom.Sample(`jobd_uptime_seconds`); !ok || up < 0 {
		t.Fatalf("uptime gauge = %v (present=%v)", up, ok)
	}

	// After a drain, healthz flips to 503.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", resp.StatusCode)
	}
}

func TestQueueHeapOrder(t *testing.T) {
	q := newJobQueue(0)
	push := func(id string, prio int, seq uint64) {
		q.push(&job{id: id, priority: prio, seq: seq})
	}
	push("c", 1, 3)
	push("a", 5, 1)
	push("d", 1, 4)
	push("b", 5, 2)
	var got []string
	for q.Len() > 0 {
		got = append(got, q.pop().id)
	}
	want := "a,b,c,d"
	if strings.Join(got, ",") != want {
		t.Fatalf("pop order = %v, want %s", got, want)
	}
	if q.pop() != nil {
		t.Fatal("pop on empty queue should be nil")
	}
}

// TestSubmitRejectionRetryAfter pins the rejection wire contract that
// clients back off on: 429 with a Retry-After header when the queue is
// full, 503 with Retry-After when draining.
func TestSubmitRejectionRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Options{
		Runner: func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return spec, false, nil
		},
		Workers:   1,
		QueueSize: 1,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		close(gate)
		ts.Close()
	}()

	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"spec":{"k":1}}`))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// One running (worker blocked on the gate) + one queued fills the
	// server; submissions beyond that must 429. The first POST may
	// still be queued when the second arrives, so allow a few tries.
	var rejected *http.Response
	for i := 0; i < 10 && rejected == nil; i++ {
		if resp := post(); resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("unexpected submit status %d", resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("never got a 429 from a full 1-slot queue")
	}
	if got := rejected.Header.Get("Retry-After"); got == "" {
		t.Error("429 rejection carries no Retry-After header")
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(rejected.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("429 body not a JSON error: err=%v body=%+v", err, body)
	}

	// Draining: same contract on 503.
	go s.Drain(context.Background())
	for i := 0; i < 100; i++ {
		if s.Draining() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("503 rejection carries no Retry-After header")
	}
}

// TestRetainJobsEviction pins the job-table bound that keeps memory
// flat under sustained load: once jobs finish, only the newest
// RetainJobs of them stay addressable.
func TestRetainJobsEviction(t *testing.T) {
	s := newTestServer(t, Options{
		Runner: func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
			return spec, false, nil
		},
		Workers:    2,
		RetainJobs: 3,
	})

	var ids []string
	for i := 0; i < 10; i++ {
		v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		// Wait for this job to finish so terminal jobs accumulate.
		deadline := time.Now().Add(5 * time.Second)
		for {
			got, ok := s.Job(v.ID)
			if ok && got.State.Terminal() {
				break
			}
			if !ok {
				break // already evicted, also fine
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", v.ID)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if got := len(s.Jobs()); got != 3 {
		t.Fatalf("retained %d jobs, want 3", got)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Errorf("oldest job %s still addressable past the retention bound", ids[0])
	}
	if _, ok := s.Job(ids[len(ids)-1]); !ok {
		t.Errorf("newest job %s was evicted", ids[len(ids)-1])
	}
}

// openLoopSubmits submits, one due every openLoopGap, overload an
// overloadServer: it takes a job per 5 ms and holds two more.
const openLoopSubmits, openLoopGap = 60, 2 * time.Millisecond

// overloadServer returns a 2-worker, 2-slot server behind HTTP whose
// runner reports progress and takes 10 ms.
func overloadServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	runner := func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		ProgressSink(ctx)(ItemProgress{Cycles: 1, Done: 1, Total: 2})
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		return spec, false, nil
	}
	s := newTestServer(t, Options{
		Runner:           runner,
		Workers:          2,
		QueueSize:        2,
		ProgressInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// openLoop submits openLoopSubmits jobs through c, submit i due at
// i*openLoopGap whether or not earlier submits have returned, and
// reads each accepted job's event stream from baseURL to its end. It
// returns the last event type of every accepted job's stream, keyed by
// job ID, and the number of submits rejected with ErrQueueFull; any
// other submit or stream error fails the test.
func openLoop(ctx context.Context, t *testing.T, c *Client, baseURL string) (map[string]string, int) {
	t.Helper()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted = map[string]string{}
		rejected int
		errs     []error
	)
	start := time.Now()
	for i := 0; i < openLoopSubmits; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * openLoopGap)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Submit(ctx, SubmitRequest{Spec: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))})
			if errors.Is(err, ErrQueueFull) {
				mu.Lock()
				rejected++
				mu.Unlock()
				return
			}
			last := ""
			if err == nil {
				last, err = lastSSEEvent(ctx, t, baseURL+"/v1/jobs/"+v.ID+"/events")
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			accepted[v.ID] = last
		}(i)
	}
	wg.Wait()
	if len(errs) != 0 {
		t.Fatalf("%d submits or event streams failed, first: %v", len(errs), errs[0])
	}
	return accepted, rejected
}

// TestOverloadRejectionsSeparate offers submissions over HTTP faster
// than a 2-worker, 2-slot server can take them, on a fixed schedule
// that does not slow down for rejections, and checks the overload
// contract a client sees: every submit is either accepted or rejected
// with ErrQueueFull, never another error, and every accepted job
// still finishes.
func TestOverloadRejectionsSeparate(t *testing.T) {
	s, ts := overloadServer(t)
	c := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	accepted, rejected := openLoop(ctx, t, c, ts.URL)
	if len(accepted)+rejected != openLoopSubmits {
		t.Fatalf("accepted %d + rejected %d != %d submits", len(accepted), rejected, openLoopSubmits)
	}
	if rejected == 0 {
		t.Fatalf("open-loop overload of a 2-slot queue rejected none of %d submits", openLoopSubmits)
	}
	for id := range accepted {
		if v := waitTerminal(t, s, id); v.State != StateDone {
			t.Errorf("job %s ended %s, want done", id, v.State)
		}
	}
}

// TestLoadHarnessEndToEnd runs the same open-loop overload over HTTP
// end to end and checks what it leaves behind: every accepted job's
// event stream ends in done, and closing the server leaves no
// goroutines behind.
func TestLoadHarnessEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := overloadServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	accepted, _ := openLoop(ctx, t, &Client{BaseURL: ts.URL}, ts.URL)
	if len(accepted) == 0 {
		t.Fatalf("open-loop load accepted none of %d submits", openLoopSubmits)
	}
	for id, last := range accepted {
		if last != EventDone {
			t.Errorf("job %s event stream ended with %q, want %q", id, last, EventDone)
		}
	}

	// Everything drained: no goroutines left by the workers, the event
	// streams or the client's connections. Allow scheduler slack.
	s.Close()
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+8 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// lastSSEEvent reads an event stream until the server closes it and
// returns the type of its last event.
func lastSSEEvent(ctx context.Context, t *testing.T, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		return "", nil
	}
	return events[len(events)-1].typ, nil
}
