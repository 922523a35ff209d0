package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sseLog renders log events the way GET /v1/jobs/{id}/events frames
// them, one frame per event from its data line.
func sseLog(data ...string) string {
	var b strings.Builder
	for _, d := range data {
		var ev struct {
			Seq  int    `json:"seq"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(d), &ev); err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, d)
	}
	return b.String()
}

// fetchEvents reads job id's whole event stream, which ends once the
// job is terminal. lastEventID, when set, resumes the stream.
func fetchEvents(base, id, lastEventID string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// readEvents is fetchEvents for the test goroutine.
func readEvents(t *testing.T, base, id, lastEventID string) string {
	t.Helper()
	s, err := fetchEvents(base, id, lastEventID)
	if err != nil {
		t.Fatalf("reading %s's events: %v", id, err)
	}
	return s
}

// lifecycleRunner serves the fake cache's results as hits and echoes
// other specs as misses. {"fail":msg} fails with msg, {"block":true}
// runs until its context ends, and {"gate":true} until release closes.
func lifecycleRunner(c *fakeCache, release <-chan struct{}) Runner {
	return func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		var s struct {
			Fail  string `json:"fail"`
			Block bool   `json:"block"`
			Gate  bool   `json:"gate"`
		}
		_ = json.Unmarshal(spec, &s)
		switch {
		case s.Fail != "":
			return nil, false, errors.New(s.Fail)
		case s.Block:
			<-ctx.Done()
			return nil, false, ctx.Err()
		case s.Gate:
			<-release
		}
		if r, ok := c.results[string(spec)]; ok {
			return r, true, nil
		}
		return spec, false, nil
	}
}

// TestEventLogLifecycles pins the SSE bytes of every path through a
// job's life, as the log was written when each transition appended its
// own event: born done, worker-run hits and misses (after a probed hit
// and without one), a failing item, a queued job cancelled by Drain, a
// timeout mid-run, a job recovered from the journal, and a client
// resuming with Last-Event-ID. Streams opened before the job ends must
// be woken at each transition and end with the same bytes.
func TestEventLogLifecycles(t *testing.T) {
	const (
		hit  = `{"k":"hit"}`
		miss = `{"k":"miss"}`
	)
	cache := newFakeCache(hit)
	s := newTestServer(t, Options{Runner: lifecycleRunner(cache, nil), Lookup: cache.lookup, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit := func(req SubmitRequest) string {
		t.Helper()
		v, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}

	t.Run("born done", func(t *testing.T) {
		id := submit(SubmitRequest{Spec: json.RawMessage(hit)})
		want := sseLog(
			`{"seq":0,"type":"queued","data":{"items":1}}`,
			`{"seq":1,"type":"started"}`,
			`{"seq":2,"type":"item_done","data":{"cache_hit":true,"error":"","index":0}}`,
			`{"seq":3,"type":"done"}`)
		if got := readEvents(t, ts.URL, id, ""); got != want {
			t.Fatalf("events:\n%s\nwant:\n%s", got, want)
		}
	})
	t.Run("probed hit then miss", func(t *testing.T) {
		id := submit(SubmitRequest{Specs: rawSpecs(hit, miss)})
		want := sseLog(
			`{"seq":0,"type":"queued","data":{"items":2}}`,
			`{"seq":1,"type":"started"}`,
			`{"seq":2,"type":"item_done","data":{"cache_hit":true,"error":"","index":0}}`,
			`{"seq":3,"type":"item_done","data":{"cache_hit":false,"error":"","index":1}}`,
			`{"seq":4,"type":"done"}`)
		if got := readEvents(t, ts.URL, id, ""); got != want {
			t.Fatalf("events:\n%s\nwant:\n%s", got, want)
		}
	})
	t.Run("worker miss then hit", func(t *testing.T) {
		id := submit(SubmitRequest{Specs: rawSpecs(miss, hit)})
		want := sseLog(
			`{"seq":0,"type":"queued","data":{"items":2}}`,
			`{"seq":1,"type":"started"}`,
			`{"seq":2,"type":"item_done","data":{"cache_hit":false,"error":"","index":0}}`,
			`{"seq":3,"type":"item_done","data":{"cache_hit":true,"error":"","index":1}}`,
			`{"seq":4,"type":"done"}`)
		if got := readEvents(t, ts.URL, id, ""); got != want {
			t.Fatalf("events:\n%s\nwant:\n%s", got, want)
		}
	})
	t.Run("failed item and resume", func(t *testing.T) {
		id := submit(SubmitRequest{Specs: rawSpecs(miss, `{"fail":"bad <spec> & \"q\""}`)})
		log := []string{
			`{"seq":0,"type":"queued","data":{"items":2}}`,
			`{"seq":1,"type":"started"}`,
			`{"seq":2,"type":"item_done","data":{"cache_hit":false,"error":"","index":0}}`,
			`{"seq":3,"type":"item_done","data":{"cache_hit":false,"error":"bad \u003cspec\u003e \u0026 \"q\"","index":1}}`,
			`{"seq":4,"type":"failed","data":{"failed":1}}`,
		}
		if got, want := readEvents(t, ts.URL, id, ""), sseLog(log...); got != want {
			t.Fatalf("events:\n%s\nwant:\n%s", got, want)
		}
		// A client that saw through id 2 resumes at 3.
		if got, want := readEvents(t, ts.URL, id, "2"), sseLog(log[3:]...); got != want {
			t.Fatalf("resumed events:\n%s\nwant:\n%s", got, want)
		}
	})
	t.Run("timeout mid-run", func(t *testing.T) {
		id := submit(SubmitRequest{Specs: rawSpecs(miss, `{"block":true}`), Timeout: "200ms"})
		want := sseLog(
			`{"seq":0,"type":"queued","data":{"items":2}}`,
			`{"seq":1,"type":"started"}`,
			`{"seq":2,"type":"item_done","data":{"cache_hit":false,"error":"","index":0}}`,
			`{"seq":3,"type":"cancelled","data":{"reason":"context deadline exceeded"}}`)
		// The stream opens before the job ends and is woken to its end.
		if got := readEvents(t, ts.URL, id, ""); got != want {
			t.Fatalf("events:\n%s\nwant:\n%s", got, want)
		}
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		release := make(chan struct{})
		s := newTestServer(t, Options{Runner: lifecycleRunner(cache, release), Workers: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		running, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"gate":true}`)})
		if err != nil {
			t.Fatal(err)
		}
		for v, _ := s.Job(running.ID); v.State != StateRunning; v, _ = s.Job(running.ID) {
			time.Sleep(time.Millisecond)
		}
		queued, err := s.Submit(SubmitRequest{Spec: json.RawMessage(miss)})
		if err != nil {
			t.Fatal(err)
		}
		stream := make(chan string)
		go func() {
			body, err := fetchEvents(ts.URL, queued.ID, "")
			if err != nil {
				body = err.Error()
			}
			stream <- body
		}()
		time.Sleep(20 * time.Millisecond) // let the stream reach its wait
		drained := make(chan error)
		go func() { drained <- s.Drain(context.Background()) }()
		want := sseLog(
			`{"seq":0,"type":"queued","data":{"items":1}}`,
			`{"seq":1,"type":"cancelled","data":{"reason":"server draining"}}`)
		if got := <-stream; got != want {
			t.Fatalf("events:\n%s\nwant:\n%s", got, want)
		}
		close(release)
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
		want = sseLog(
			`{"seq":0,"type":"queued","data":{"items":1}}`,
			`{"seq":1,"type":"started"}`,
			`{"seq":2,"type":"item_done","data":{"cache_hit":false,"error":"","index":0}}`,
			`{"seq":3,"type":"done"}`)
		if got := readEvents(t, ts.URL, running.ID, ""); got != want {
			t.Fatalf("in-flight job's events:\n%s\nwant:\n%s", got, want)
		}
	})

	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		jl := openTestJournal(t, dir)
		if err := jl.Accepted("j000007", 7, 0, 0, rawSpecs(miss), time.Now()); err != nil {
			t.Fatal(err)
		}
		jl.Close()
		s := newTestServer(t, Options{Runner: lifecycleRunner(cache, nil), Workers: 1, Journal: openTestJournal(t, dir)})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		waitTerminal(t, s, "j000007")
		want := sseLog(
			`{"seq":0,"type":"queued","data":{"items":1,"recovered":true}}`,
			`{"seq":1,"type":"started"}`,
			`{"seq":2,"type":"item_done","data":{"cache_hit":false,"error":"","index":0}}`,
			`{"seq":3,"type":"done"}`)
		if got := readEvents(t, ts.URL, "j000007", ""); got != want {
			t.Fatalf("events:\n%s\nwant:\n%s", got, want)
		}
	})
}
