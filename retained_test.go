package gpuwalk_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"gpuwalk"
	"gpuwalk/internal/cluster"
	"gpuwalk/internal/jobd"
)

// Retained-heap bounds, in bytes per job (a backend's born-done job with
// its trace, in its job table) and per routed trace (the gateway's
// trace store). On linux/amd64 with go1.24 the two measure 1,036 and
// 912 bytes, and each bound sits 4-6% above that. Storing a job's
// event log again, or a trace ID and service in every span, breaks
// them: with both, the two measured 1,420 and 1,166 bytes.
const (
	jobRetainedBound   = 1080
	traceRetainedBound = 970
)

// retainedPerOp returns the live heap that n calls of op leave behind,
// per call. Each side is measured after two collections, the second of
// which empties the sync.Pools' victim caches.
func retainedPerOp(n int, op func(i int)) float64 {
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(live()-before) / float64(n)
}

// submitBody is a tiny spec's submission, unique per i as a sweep's
// specs are.
func submitBody(i int) string {
	return fmt.Sprintf(`{"spec":{"Workload":"MVT","Seed":%d,"Gen":{"Scale":0.02,"WavefrontsPerCU":2,"InstrsPerWavefront":6}}}`, i)
}

// post sends one submission through h and requires a 202.
func post(t *testing.T, h http.Handler, body string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit answered %d: %s", rec.Code, rec.Body)
	}
}

// TestJobRetainedBytes bounds the heap a backend keeps for each job
// its table retains: a cache hit answered at admission, submitted over
// HTTP, with its submit and cache.lookup spans. The stored result is
// shared by every job, so it is not counted.
func TestJobRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations distort the heap; measured without -race")
	}
	cache, err := gpuwalk.OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const key = "retained"
	result := `{"cycles":1,"pad":"` + strings.Repeat("x", 2800) + `"}`
	if err := cache.Put(key, []byte(result)); err != nil {
		t.Fatal(err)
	}
	s, err := jobd.NewServer(jobd.Options{
		Runner: func(context.Context, json.RawMessage) (json.RawMessage, bool, error) {
			return nil, false, errors.New("every job should be answered at admission")
		},
		Lookup: func(ctx context.Context, _ json.RawMessage) (json.RawMessage, bool) {
			return gpuwalk.LookupCachedJSON(ctx, cache, key)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	perJob := retainedPerOp(4000, func(i int) { post(t, h, submitBody(i)) })
	runtime.KeepAlive(s)
	t.Logf("%.0f bytes retained per job", perJob)
	if perJob > jobRetainedBound {
		t.Fatalf("a retained job holds %.0f bytes, want <= %d", perJob, jobRetainedBound)
	}
}

// TestTraceRetainedBytes bounds the heap the gateway keeps for each
// submission it routes: the trace store's gateway.submit, gateway.route
// and gateway.proxy spans and the job's binding to its trace.
func TestTraceRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations distort the heap; measured without -race")
	}
	var seq atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	var backend *httptest.Server
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"%s-j%06d","state":"done"}`, cluster.NodeName(backend.URL), seq.Add(1))
	})
	backend = httptest.NewServer(mux)
	defer backend.Close()
	m, err := cluster.NewMembership(cluster.MemberOptions{Peers: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	g, err := cluster.NewGateway(cluster.GatewayOptions{Membership: m})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()
	perTrace := retainedPerOp(4000, func(i int) { post(t, h, submitBody(i)) })
	runtime.KeepAlive(g)
	t.Logf("%.0f bytes retained per routed trace", perTrace)
	if perTrace > traceRetainedBound {
		t.Fatalf("a routed trace holds %.0f bytes, want <= %d", perTrace, traceRetainedBound)
	}
}
