package httpobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gpuwalk/internal/obs"
)

// newMux serves the routes the table test needs: an implicit 200 (a
// body written without WriteHeader), an explicit 404, a handler that
// writes nothing, and a flushing one. Every handler reports what the
// request context carried.
func newMux(seen func(r *http.Request)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		seen(r)
		fmt.Fprint(w, "ok")
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		seen(r)
		w.WriteHeader(http.StatusNotFound)
	})
	mux.HandleFunc("GET /silent", func(w http.ResponseWriter, r *http.Request) {
		seen(r)
	})
	mux.HandleFunc("GET /stream", func(w http.ResponseWriter, r *http.Request) {
		seen(r)
		fmt.Fprint(w, "data: x\n\n")
		w.(http.Flusher).Flush()
	})
	return mux
}

func TestWrap(t *testing.T) {
	remote := obs.SpanContext{
		Trace: obs.TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36},
		Span:  obs.SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7},
	}
	id64 := strings.Repeat("a", 64)
	for _, tc := range []struct {
		name        string
		path        string
		reqID       string // inbound X-Request-Id
		traceparent string
		wantID      string
		wantRoute   string
		wantCode    int
		wantRemote  obs.SpanContext
		wantFlushed bool
	}{
		{name: "adopts valid id", path: "/ok", reqID: "bench-1.2_3",
			wantID: "bench-1.2_3", wantRoute: "GET /ok", wantCode: 200},
		{name: "adopts 64-byte id", path: "/ok", reqID: id64,
			wantID: id64, wantRoute: "GET /ok", wantCode: 200},
		{name: "id wins over traceparent", path: "/ok", reqID: "bench-2", traceparent: remote.Traceparent(),
			wantID: "bench-2", wantRoute: "GET /ok", wantCode: 200, wantRemote: remote},
		{name: "malformed id replaced", path: "/ok", reqID: "bad id {junk}",
			wantID: "x000001", wantRoute: "GET /ok", wantCode: 200},
		{name: "65-byte id replaced", path: "/ok", reqID: id64 + "a",
			wantID: "x000001", wantRoute: "GET /ok", wantCode: 200},
		{name: "id from traceparent", path: "/ok", traceparent: remote.Traceparent(),
			wantID: obs.RequestIDFromTrace(remote.Trace), wantRoute: "GET /ok", wantCode: 200, wantRemote: remote},
		{name: "malformed id and traceparent", path: "/ok", reqID: "bad id", traceparent: "00-zz-zz-01",
			wantID: "x000001", wantRoute: "GET /ok", wantCode: 200},
		{name: "explicit 404", path: "/jobs/j7",
			wantID: "x000001", wantRoute: "GET /jobs/{id}", wantCode: 404},
		{name: "nothing written", path: "/silent",
			wantID: "x000001", wantRoute: "GET /silent", wantCode: 200},
		{name: "unmatched", path: "/nope", traceparent: remote.Traceparent(),
			wantID: obs.RequestIDFromTrace(remote.Trace), wantRoute: "unmatched", wantCode: 404, wantRemote: remote},
		{name: "flush passes through", path: "/stream",
			wantID: "x000001", wantRoute: "GET /stream", wantCode: 200, wantFlushed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fams := obs.NewFamilySet()
			reqs := fams.NewCounter("http_requests_total", "Requests.", "route", "code")
			var logBuf bytes.Buffer
			log := slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
			var ctxID string
			var ctxRemote obs.SpanContext
			h := Wrap(newMux(func(r *http.Request) {
				ctxID, ctxRemote = RequestID(r.Context()), RemoteSpan(r.Context())
			}), reqs, log, "x")

			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			if tc.reqID != "" {
				req.Header.Set("X-Request-Id", tc.reqID)
			}
			if tc.traceparent != "" {
				req.Header.Set(obs.TraceparentHeader, tc.traceparent)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)

			if got := rec.Header().Get("X-Request-Id"); got != tc.wantID {
				t.Errorf("X-Request-Id = %q, want %q", got, tc.wantID)
			}
			if rec.Code != tc.wantCode {
				t.Errorf("status = %d, want %d", rec.Code, tc.wantCode)
			}
			if rec.Flushed != tc.wantFlushed {
				t.Errorf("flushed = %v, want %v", rec.Flushed, tc.wantFlushed)
			}
			if tc.wantRoute != "unmatched" {
				if ctxID != tc.wantID || ctxRemote != tc.wantRemote {
					t.Errorf("context carried (%q, %+v), want (%q, %+v)", ctxID, ctxRemote, tc.wantID, tc.wantRemote)
				}
			}
			if n := reqs.With(tc.wantRoute, fmt.Sprint(tc.wantCode)).Count(); n != 1 {
				t.Errorf("http_requests_total{route=%q,code=\"%d\"} = %d, want 1", tc.wantRoute, tc.wantCode, n)
			}

			var entry map[string]any
			if err := json.Unmarshal(logBuf.Bytes(), &entry); err != nil {
				t.Fatalf("access log is not one JSON record: %v\n%s", err, logBuf.String())
			}
			for k, want := range map[string]any{
				"msg": "http request", "request_id": tc.wantID, "route": tc.wantRoute,
				"path": tc.path, "code": float64(tc.wantCode),
			} {
				if entry[k] != want {
					t.Errorf("access log %s = %v, want %v", k, entry[k], want)
				}
			}
			wantTrace := ""
			if tc.wantRemote.Valid() {
				wantTrace = tc.wantRemote.Trace.String()
			}
			if got, _ := entry["trace_id"].(string); got != wantTrace {
				t.Errorf("access log trace_id = %q, want %q", got, wantTrace)
			}
		})
	}
}

// TestWrapConcurrent sends requests from several goroutines at once:
// every minted ID is unique, each handler sees its own request's ID,
// and the counter adds up. Run it under -race.
func TestWrapConcurrent(t *testing.T) {
	const goroutines, perG = 8, 200
	fams := obs.NewFamilySet()
	reqs := fams.NewCounter("http_requests_total", "Requests.", "route", "code")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, RequestID(r.Context()))
	})
	h := Wrap(mux, reqs, slog.New(slog.NewTextHandler(io.Discard, nil)), "x")

	var mu sync.Mutex
	ids := map[string]bool{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ok", nil))
				id := rec.Header().Get("X-Request-Id")
				if rec.Body.String() != id {
					t.Errorf("handler saw request ID %q, response header says %q", rec.Body.String(), id)
				}
				mu.Lock()
				if ids[id] {
					t.Errorf("request ID %q minted twice", id)
				}
				ids[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if n := reqs.With("GET /ok", "200").Count(); n != goroutines*perG {
		t.Fatalf("requests counted %d, want %d", n, goroutines*perG)
	}
}
