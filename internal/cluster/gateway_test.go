package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuwalk/internal/obs"
)

// fakeNode is a scriptable stand-in for a backend gpuwalkd. Like a
// backend started with -self, it labels itself and prefixes its job
// IDs with the host:port of its own URL.
type fakeNode struct {
	name string // NodeName(srv.URL)
	srv  *httptest.Server

	healthy atomic.Bool
	submits atomic.Int64
	gets    atomic.Int64

	mu       sync.Mutex
	jobs     map[string]string // job ID -> body returned by GET
	lastReq  http.Header       // headers of the last /v1/jobs request
	nextResp func(w http.ResponseWriter, r *http.Request) bool
}

// newFakeNode builds the fake; extras register additional routes on
// the mux before the server starts (so no handler swap races the
// serving goroutine under -race).
func newFakeNode(t *testing.T, extras ...func(n *fakeNode, mux *http.ServeMux)) *fakeNode {
	t.Helper()
	n := &fakeNode{jobs: make(map[string]string)}
	n.healthy.Store(true)
	mux := http.NewServeMux()
	for _, extra := range extras {
		extra(n, mux)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.lastReq = r.Header.Clone()
		hook := n.nextResp
		n.nextResp = nil
		n.mu.Unlock()
		if hook != nil && hook(w, r) {
			return
		}
		id := fmt.Sprintf("%s-j%d", n.name, n.submits.Add(1))
		n.mu.Lock()
		n.jobs[id] = fmt.Sprintf(`{"id":%q,"state":"done","node":%q}`, id, n.name)
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued","node":%q}`, id, n.name)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.gets.Add(1)
		n.mu.Lock()
		body, ok := n.jobs[r.PathValue("id")]
		n.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"jobs":[{"id":"%s-listed"}]}`, n.name)
	})
	n.srv = httptest.NewUnstartedServer(mux)
	n.name = n.srv.Listener.Addr().String()
	n.srv.Start()
	t.Cleanup(n.srv.Close)
	return n
}

// keyFromSpec is the test KeyFunc: specs are {"k":"..."}.
func keyFromSpec(spec json.RawMessage) (string, error) {
	var v struct {
		K string `json:"k"`
	}
	if err := json.Unmarshal(spec, &v); err != nil || v.K == "" {
		return "", fmt.Errorf("no k in spec")
	}
	return v.K, nil
}

// newTestGateway wires a gateway over the given fakes. The membership
// is not started (every node optimistically healthy, no probe races);
// tests that need liveness call m.probeAll() explicitly.
func newTestGateway(t *testing.T, nodes ...*fakeNode) (*Gateway, *Membership, *httptest.Server) {
	t.Helper()
	peers := make([]string, len(nodes))
	for i, n := range nodes {
		peers[i] = n.srv.URL
	}
	m, err := NewMembership(MemberOptions{
		Peers:         peers,
		ProbeInterval: time.Hour, // tests drive probes by hand
		ProbeTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	gw, err := NewGateway(GatewayOptions{Membership: m, KeyFunc: keyFromSpec})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return gw, m, srv
}

func nodeFor(nodes []*fakeNode, url string) *fakeNode {
	for _, n := range nodes {
		if n.srv.URL == url {
			return n
		}
	}
	return nil
}

func submitBody(key string) string {
	return fmt.Sprintf(`{"spec":{"k":%q}}`, key)
}

// TestGatewayRoutesByKey: submissions land on the ring owner of their
// key, the response names the node, and subsequent GETs proxy straight
// to that node without scattering.
func TestGatewayRoutesByKey(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t), newFakeNode(t), newFakeNode(t)}
	_, m, srv := newTestGateway(t, nodes...)

	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner := nodeFor(nodes, m.Owner(key))
		before := owner.submits.Load()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(submitBody(key)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("key %s: status %d, body %s", key, resp.StatusCode, body)
		}
		if owner.submits.Load() != before+1 {
			t.Fatalf("key %s: expected owner %s did not receive the submission", key, owner.name)
		}
		if got, want := resp.Header.Get("X-Gpuwalkd-Node"), NodeName(owner.srv.URL); got != want {
			t.Fatalf("X-Gpuwalkd-Node = %q, want %q", got, want)
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
			t.Fatalf("bad submit response %s", body)
		}

		// The ID's prefix sends the read straight to the owner.
		var otherGets int64
		for _, n := range nodes {
			if n != owner {
				otherGets += n.gets.Load()
			}
		}
		resp2, err := http.Get(srv.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("GET %s through gateway: %d", v.ID, resp2.StatusCode)
		}
		var otherAfter int64
		for _, n := range nodes {
			if n != owner {
				otherAfter += n.gets.Load()
			}
		}
		if otherAfter != otherGets {
			t.Fatalf("GET %s scattered to non-owners despite naming its owner", v.ID)
		}
	}

	// Distribution sanity: with 30 keys and 3 nodes, each should see some.
	for _, n := range nodes {
		if n.submits.Load() == 0 {
			t.Errorf("node %s received no submissions out of 30 keys", n.name)
		}
	}
}

// TestGatewayHeaderPropagation: an inbound X-Request-Id travels to the
// backend and back; the backend's Retry-After comes through. This is
// what keeps client backoff and log correlation working across the
// extra hop.
func TestGatewayHeaderPropagation(t *testing.T) {
	node := newFakeNode(t)
	_, _, srv := newTestGateway(t, node)

	node.mu.Lock()
	node.nextResp = func(w http.ResponseWriter, r *http.Request) bool {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		return true
	}
	node.mu.Unlock()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(submitBody("x")))
	req.Header.Set("X-Request-Id", "bench-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 passed through", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want %q (propagated from backend)", got, "7")
	}
	if got := resp.Header.Get("X-Request-Id"); got != "bench-123" {
		t.Fatalf("X-Request-Id = %q, want the caller's %q", got, "bench-123")
	}
	node.mu.Lock()
	backendSaw := node.lastReq.Get("X-Request-Id")
	node.mu.Unlock()
	if backendSaw != "bench-123" {
		t.Fatalf("backend saw X-Request-Id %q, want %q", backendSaw, "bench-123")
	}

	// A malformed inbound ID is replaced, not echoed: the header is a
	// convenience, not an injection vector.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/cluster", nil)
	req2.Header.Set("X-Request-Id", "bad id {with junk}")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, "bad") {
		t.Fatalf("malformed inbound request ID echoed back: %q", got)
	}
}

// TestGatewayNoHealthyOwner: with every node down the gateway sheds
// submissions with 503 + Retry-After instead of hanging or 500ing.
func TestGatewayNoHealthyOwner(t *testing.T) {
	node := newFakeNode(t)
	_, m, srv := newTestGateway(t, node)
	node.healthy.Store(false)
	m.probeAll()
	if m.HealthyCount() != 0 {
		t.Fatal("node still healthy after failing probe")
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(submitBody("x")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Health endpoint agrees.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503 with no healthy nodes", hresp.StatusCode)
	}
}

// TestGatewaySecondGatewayReads: a job submitted through one gateway
// reads as JSON, SSE and trace through a freshly built second gateway
// over the same members, and no read touches a node other than the one
// its ID names — there is no routing state to share or relearn.
func TestGatewaySecondGatewayReads(t *testing.T) {
	withStreams := func(n *fakeNode, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
			n.gets.Add(1)
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "id: 0\nevent: done\ndata: {}\n\n")
		})
		mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
			n.gets.Add(1)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"traceEvents":[]}`)
		})
	}
	nodes := []*fakeNode{newFakeNode(t, withStreams), newFakeNode(t, withStreams), newFakeNode(t, withStreams)}
	_, _, gwA := newTestGateway(t, nodes...)
	_, _, gwB := newTestGateway(t, nodes...)

	resp, err := http.Post(gwA.URL+"/v1/jobs", "application/json", strings.NewReader(submitBody("k")))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via gateway A: %d, %v", resp.StatusCode, err)
	}
	owner := nodes[0]
	for _, n := range nodes {
		if strings.HasPrefix(v.ID, n.name+"-j") {
			owner = n
		}
	}

	for _, path := range []string{"", "/trace"} {
		resp, err := http.Get(gwB.URL + "/v1/jobs/" + v.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s%s via gateway B = %d: %s", v.ID, path, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Gpuwalkd-Node"); got != owner.name {
			t.Fatalf("GET %s%s served by %q, want the owner %q", v.ID, path, got, owner.name)
		}
	}
	if events, _ := readSSE(t, gwB.URL+"/v1/jobs/"+v.ID+"/events", nil); fmt.Sprint(events) != "[done]" {
		t.Fatalf("SSE via gateway B = %v, want [done]", events)
	}
	if got := owner.gets.Load(); got != 3 {
		t.Fatalf("owner served %d reads, want 3 (JSON, trace, SSE)", got)
	}
	for _, n := range nodes {
		if n != owner && n.gets.Load() != 0 {
			t.Fatalf("non-owner %s received %d reads", n.name, n.gets.Load())
		}
	}
}

// TestGatewayOwnerDownFreshGateway: on a gateway that never saw the job,
// a read whose owner the prober has marked down answers 502 +
// Retry-After — the job lives there and a journaled node brings it
// back — not a 404 from the surviving members.
func TestGatewayOwnerDownFreshGateway(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t), newFakeNode(t)}
	_, m, srv := newTestGateway(t, nodes...)
	nodes[0].srv.Close()
	m.probeAll()
	if healthyIn(m, nodes[0].srv.URL) {
		t.Fatal("closed owner still healthy after a probe")
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + nodes[0].name + "-j000001")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("502 without Retry-After")
	}
	if nodes[1].gets.Load() != 0 {
		t.Fatal("a read for a named owner scattered to another member")
	}
}

// TestGatewayScatterFind: an ID that names no member (a backend without
// -self, or an old label) is found by asking each healthy member; an ID
// no member knows is a 404.
func TestGatewayScatterFind(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t), newFakeNode(t), newFakeNode(t)}
	_, _, srv := newTestGateway(t, nodes...)

	nodes[2].mu.Lock()
	nodes[2].jobs["c-j9"] = `{"id":"c-j9","state":"done"}`
	nodes[2].mu.Unlock()

	resp, err := http.Get(srv.URL + "/v1/jobs/c-j9")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter GET = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "c-j9") {
		t.Fatalf("wrong body: %s", body)
	}
	if got := resp.Header.Get("X-Gpuwalkd-Node"); got != nodes[2].name {
		t.Fatalf("served by %q, want the holder %q", got, nodes[2].name)
	}

	// Unknown everywhere: 404.
	resp3, err := http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp3.StatusCode)
	}
}

// TestGatewayDownNodeJobRead: a read for a job on a dead node answers
// 502 + Retry-After — the job lives there and will come back with the
// node (journal recovery), so the client is told to retry, not that
// the job is gone.
func TestGatewayDownNodeJobRead(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t), newFakeNode(t)}
	_, _, srv := newTestGateway(t, nodes...)
	nodes[0].srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/" + nodes[0].name + "-j1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("502 without Retry-After")
	}
}

// TestGatewayListMerge: GET /v1/jobs merges every reachable node's
// jobs and names the unreachable ones instead of silently shortening
// the list.
func TestGatewayListMerge(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t), newFakeNode(t), newFakeNode(t)}
	_, _, srv := newTestGateway(t, nodes...)
	downName := NodeName(nodes[1].srv.URL)
	nodes[1].srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs        []json.RawMessage `json:"jobs"`
		Unreachable []string          `json:"unreachable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("merged %d jobs, want 2 (one per reachable node)", len(out.Jobs))
	}
	if len(out.Unreachable) != 1 || out.Unreachable[0] != downName {
		t.Fatalf("unreachable = %v, want [%s]", out.Unreachable, downName)
	}
}

// sseBackend serves a scripted SSE stream alongside the standard fake
// routes.
func sseBackend(t *testing.T, script func(w http.ResponseWriter, r *http.Request)) *fakeNode {
	t.Helper()
	return newFakeNode(t, func(_ *fakeNode, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/jobs/{id}/events", script)
	})
}

func readSSE(t *testing.T, url string, hdr map[string]string) (events []string, raw string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("SSE status %d: %s", resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	var b strings.Builder
	for sc.Scan() {
		line := sc.Text()
		b.WriteString(line + "\n")
		if typ, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, typ)
		}
	}
	return events, b.String()
}

// TestGatewaySSEProxyCleanStream: a stream that ends with a terminal
// event passes through whole, flushed per event, with Last-Event-ID
// forwarded upstream.
func TestGatewaySSEProxyCleanStream(t *testing.T) {
	var gotLastID atomic.Value
	node := sseBackend(t, func(w http.ResponseWriter, r *http.Request) {
		gotLastID.Store(r.Header.Get("Last-Event-ID"))
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "id: %d\nevent: progress\ndata: {\"n\":%d}\n\n", i, i)
			fl.Flush()
		}
		fmt.Fprint(w, "id: 3\nevent: done\ndata: {}\n\n")
		fl.Flush()
	})
	gw, _, srv := newTestGateway(t, node)

	events, _ := readSSE(t, srv.URL+"/v1/jobs/"+node.name+"-j1/events", map[string]string{"Last-Event-ID": "1"})
	if got := gotLastID.Load(); got != "1" {
		t.Fatalf("backend saw Last-Event-ID %v, want 1 (passthrough)", got)
	}
	want := []string{"progress", "progress", "progress", "done"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	if n := sseDrops(t, gw); n != 0 {
		t.Fatal("clean stream counted as an upstream drop")
	}
}

// sseDrops reads gateway_sse_upstream_drops_total from the gateway's
// own families, as /metrics serves them.
func sseDrops(t *testing.T, gw *Gateway) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := gw.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ParsePromText(&b)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := doc.Sample("gateway_sse_upstream_drops_total")
	return n
}

// TestGatewaySSESyntheticErrorOnDrop: when the backend connection dies
// before a terminal event, the gateway must emit a synthetic `error`
// event — a silently closed stream would leave clients hanging on a
// job that will never report again. (Satellite: SSE drop handling.)
func TestGatewaySSESyntheticErrorOnDrop(t *testing.T) {
	node := sseBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		fmt.Fprint(w, "id: 0\nevent: progress\ndata: {\"n\":0}\n\n")
		fl.Flush()
		// Handler returns without a terminal event: the connection closes
		// as if the node was killed mid-job.
	})
	gw, _, srv := newTestGateway(t, node)

	events, raw := readSSE(t, srv.URL+"/v1/jobs/"+node.name+"-j2/events", nil)
	if len(events) < 2 || events[len(events)-1] != "error" {
		t.Fatalf("events = %v, want progress then a synthetic terminal error\nstream:\n%s", events, raw)
	}
	if !strings.Contains(raw, "lost") {
		t.Fatalf("synthetic error data does not explain the drop:\n%s", raw)
	}
	if n := sseDrops(t, gw); n != 1 {
		t.Fatalf("sse drop counter = %v, want 1", n)
	}
}

// TestGatewayClusterStatus: /v1/cluster reports every member with
// ownership fractions and health.
func TestGatewayClusterStatus(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t), newFakeNode(t)}
	_, m, srv := newTestGateway(t, nodes...)
	m.probeAll()

	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster = %d, %v", resp.StatusCode, err)
	}
	if st.Self != "gateway" || len(st.Members) != 2 || st.Healthy != 2 {
		t.Fatalf("status = %+v", st)
	}
	frac := 0.0
	for _, n := range st.Members {
		if !n.Healthy {
			t.Fatalf("member %s unhealthy: %+v", n.Node, n)
		}
		frac += n.OwnedFraction
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("ownership fractions sum to %v, want 1", frac)
	}
}

// TestGatewayMetricsRollup: /metrics carries the gateway's own
// families plus every backend's samples re-labeled with node=...,
// each family declared once even when the gateway registers it too
// (the runtime families), and the merged document still parses as
// valid exposition text.
func TestGatewayMetricsRollup(t *testing.T) {
	mkMetrics := func(jobs int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", obs.ContentTypeProm)
			fmt.Fprintf(w, "# HELP jobd_jobs_total Jobs by terminal state.\n# TYPE jobd_jobs_total counter\njobd_jobs_total{state=\"done\"} %d\n", jobs)
			fmt.Fprint(w, "# HELP gpuwalkd_cache_peer_hits_total Local misses answered by the cluster peer read-through.\n# TYPE gpuwalkd_cache_peer_hits_total counter\ngpuwalkd_cache_peer_hits_total 2\n")
			fmt.Fprintf(w, "# HELP go_goroutines Number of goroutines that currently exist.\n# TYPE go_goroutines gauge\ngo_goroutines %d\n", 10+jobs)
		}
	}
	withMetrics := func(jobs int) func(*fakeNode, *http.ServeMux) {
		return func(_ *fakeNode, mux *http.ServeMux) {
			mux.HandleFunc("GET /metrics", mkMetrics(jobs))
		}
	}
	nodes := []*fakeNode{
		newFakeNode(t, withMetrics(1)),
		newFakeNode(t, withMetrics(2)),
	}
	_, _, srv := newTestGateway(t, nodes...)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	doc, err := obs.ParsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("rolled-up /metrics does not parse: %v\n%s", err, text)
	}
	for _, n := range nodes {
		key := fmt.Sprintf("jobd_jobs_total{node=%q,state=\"done\"}", NodeName(n.srv.URL))
		if _, ok := doc.Sample(key); !ok {
			t.Errorf("rollup missing %s\n%s", key, text)
		}
		peerKey := fmt.Sprintf("gpuwalkd_cache_peer_hits_total{node=%q}", NodeName(n.srv.URL))
		if v, ok := doc.Sample(peerKey); !ok || v != 2 {
			t.Errorf("rollup missing peer-hit counter %s (got %v, %v)", peerKey, v, ok)
		}
		goKey := fmt.Sprintf("go_goroutines{node=%q}", NodeName(n.srv.URL))
		if _, ok := doc.Sample(goKey); !ok {
			t.Errorf("rollup missing %s\n%s", goKey, text)
		}
	}
	if _, ok := doc.Types["gateway_nodes_healthy"]; !ok {
		t.Error("gateway's own families missing from /metrics")
	}
	if _, ok := doc.Sample("go_goroutines"); !ok {
		t.Errorf("gateway's own unlabeled go_goroutines missing\n%s", text)
	}
	for _, fam := range []string{"jobd_jobs_total", "go_goroutines"} {
		if got := strings.Count(text, "# TYPE "+fam+" "); got != 1 {
			t.Errorf("TYPE emitted %d times for %s, want once", got, fam)
		}
	}
}

// TestGatewayFallbackKeyRouting: specs the KeyFunc rejects still route
// deterministically (same bytes, same node).
func TestGatewayFallbackKeyRouting(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t), newFakeNode(t), newFakeNode(t)}
	_, _, srv := newTestGateway(t, nodes...)

	body := `{"spec":{"bogus":true}}` // keyFromSpec errors: no "k"
	var first string
	for i := 0; i < 5; i++ {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		node := resp.Header.Get("X-Gpuwalkd-Node")
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if first == "" {
			first = node
		} else if node != first {
			t.Fatalf("fallback routing not deterministic: %q then %q", first, node)
		}
	}
}

// lockedBuffer is a bytes.Buffer safe to write from handler goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestGatewaySubmitAnswerShapes: whatever the backend's answer to a
// submission looks like, the gateway relays it byte for byte with its
// Content-Length, though it came chunked. A 202 logs "job routed" and
// binds the job's trace under the ID it carries, whether or not "id"
// leads the body; a 202 too broken to name a job logs an empty ID and
// binds nothing, and any other answer does neither.
func TestGatewaySubmitAnswerShapes(t *testing.T) {
	node := newFakeNode(t)
	m, err := NewMembership(MemberOptions{Peers: []string{node.srv.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	var logs lockedBuffer
	gw, err := NewGateway(GatewayOptions{Membership: m, KeyFunc: keyFromSpec,
		Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)

	id := node.name + "-j7"
	for _, tc := range []struct {
		name   string
		code   int
		body   string
		wantID string // "" binds nothing
	}{
		{"id leads", http.StatusAccepted, `{"id":"` + id + `","state":"done","items":[{"spec":{},"result":{"a":"<"},"done":true}]}` + "\n", id},
		{"id later", http.StatusAccepted, `{"state":"queued","id":"` + id + `1"}`, id + "1"},
		{"truncated", http.StatusAccepted, `{"state":"queued","id":"` + id, ""},
		{"truncated in the id", http.StatusAccepted, `{"id":"` + id, ""},
		{"not a 202", http.StatusTooManyRequests, `{"error":"jobd: job queue is full"}` + "\n", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node.mu.Lock()
			node.nextResp = func(w http.ResponseWriter, r *http.Request) bool {
				// Half, a flush, then the rest: the answer goes out
				// chunked, without a Content-Length.
				w.WriteHeader(tc.code)
				io.WriteString(w, tc.body[:len(tc.body)/2])
				w.(http.Flusher).Flush()
				io.WriteString(w, tc.body[len(tc.body)/2:])
				return true
			}
			node.mu.Unlock()
			logged := len(logs.String())
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(submitBody("k")))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code || string(body) != tc.body || resp.ContentLength != int64(len(body)) {
				t.Fatalf("relayed %d %q with Content-Length %d, want %d %q", resp.StatusCode, body, resp.ContentLength, tc.code, tc.body)
			}
			var routed []map[string]any
			for _, line := range strings.Split(strings.TrimSpace(logs.String()[logged:]), "\n") {
				var rec map[string]any
				if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == "job routed" {
					routed = append(routed, rec)
				}
			}
			switch {
			case tc.code != http.StatusAccepted && len(routed) != 0:
				t.Fatalf("a %d answer logged %v", tc.code, routed)
			case tc.code == http.StatusAccepted && (len(routed) != 1 || routed[0]["job_id"] != tc.wantID || routed[0]["node"] != node.name):
				t.Fatalf("logged %v, want one job routed with job_id %q", routed, tc.wantID)
			}
			if tc.wantID != "" && gw.traces.spansForJob(tc.wantID) == nil {
				t.Fatalf("no trace bound to %s", tc.wantID)
			}
		})
	}
	gw.traces.mu.Lock()
	bound := len(gw.traces.byJob)
	gw.traces.mu.Unlock()
	if bound != 2 {
		t.Fatalf("%d jobs bound a trace, want the 2 whose 202 names them", bound)
	}
}
