package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"gpuwalk/internal/obs"
	"gpuwalk/internal/obs/httpobs"
)

// KeyFunc derives the routing key of one job spec. gpuwalkd wires it
// to the ConfigHash (the simulation's content address), so a job lands
// on the node whose result cache owns — or will own — its result. A
// KeyFunc error falls back to a digest of the raw spec bytes: routing
// stays deterministic and the owning backend produces the
// authoritative validation error.
type KeyFunc func(spec json.RawMessage) (string, error)

// GatewayOptions configures a Gateway.
type GatewayOptions struct {
	// Membership is the probed member list and ring. Required; the
	// caller owns Start/Close.
	Membership *Membership
	// KeyFunc routes specs (see KeyFunc). Nil always uses the raw-bytes
	// fallback.
	KeyFunc KeyFunc
	// HTTP serves proxied request/response exchanges; nil uses a
	// client with a 30s timeout. SSE streams use a dedicated
	// timeout-free client regardless.
	HTTP *http.Client
	// ScrapeTimeout bounds one backend /metrics scrape during rollup.
	// Defaults to 3s.
	ScrapeTimeout time.Duration
	// Logger receives routing and proxy-failure logs. Nil discards.
	Logger *slog.Logger
	// SpanLimit bounds each trace's gateway span buffer. Zero uses
	// obs.DefaultSpanLimit; negative disables gateway tracing (the
	// traceparent header still propagates to backends untouched).
	SpanLimit int
}

// Gateway fronts a gpuwalkd cluster: POST /v1/jobs routes to the node
// owning the job's key, job reads and SSE streams proxy to the node
// that accepted the job, /v1/cluster exposes ring and health, and
// /metrics rolls every node's exposition up under a node label.
//
// The gateway holds no job state: a backend mints its job IDs as
// "<host:port>-j<seq>", so every read resolves its node from the ID
// alone (see owner), and a restarted or second gateway is correct from
// its first request.
type Gateway struct {
	m    *Membership
	opts GatewayOptions
	log  *slog.Logger
	hc   *http.Client
	sse  *http.Client

	// traces holds the gateway's routing spans per trace ID, nil when
	// GatewayOptions.SpanLimit < 0. See tracestore.go.
	traces *traceStore

	metrics *gatewayMetrics
}

// NewGateway builds a gateway over an existing membership.
func NewGateway(opts GatewayOptions) (*Gateway, error) {
	if opts.Membership == nil {
		return nil, fmt.Errorf("cluster: GatewayOptions.Membership is required")
	}
	if opts.ScrapeTimeout <= 0 {
		opts.ScrapeTimeout = 3 * time.Second
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	hc := opts.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	g := &Gateway{
		m:    opts.Membership,
		opts: opts,
		log:  log,
		hc:   hc,
		sse:  &http.Client{}, // SSE streams outlive any fixed timeout
	}
	g.metrics = newGatewayMetrics(g, time.Now())
	if opts.SpanLimit >= 0 {
		g.traces = newTraceStore("gateway", opts.SpanLimit, 0, g.metrics.observeStage)
	}
	return g, nil
}

// routeKey computes the routing key for a submission body. The key of
// a sweep is its first spec's key: a sweep is one job on one node, so
// its items stay together (the server-side sweep DAG of a later PR is
// what will scatter children).
func (g *Gateway) routeKey(body []byte) string {
	var req struct {
		Spec  json.RawMessage   `json:"spec"`
		Specs []json.RawMessage `json:"specs"`
	}
	spec := json.RawMessage(body)
	if err := json.Unmarshal(body, &req); err == nil {
		switch {
		case req.Spec != nil:
			spec = req.Spec
		case len(req.Specs) > 0:
			spec = req.Specs[0]
		}
	}
	if g.opts.KeyFunc != nil {
		if key, err := g.opts.KeyFunc(spec); err == nil {
			return key
		}
	}
	return fallbackKey(spec)
}

// fallbackKey is the routing key of a spec that has no content
// address: the hex SHA-256 of its raw bytes, prefixed so it can never
// collide with a real ConfigHash.
func fallbackKey(spec []byte) string {
	sum := sha256.Sum256(spec)
	return "raw:" + hex.EncodeToString(sum[:])
}

// Handler returns the gateway HTTP API. The surface mirrors a single
// gpuwalkd node — clients need not know they are talking to a cluster
// — plus the /v1/cluster status endpoint:
//
//	POST /v1/jobs              route to the key's owner
//	GET  /v1/jobs              merged list across healthy nodes
//	GET  /v1/jobs/{id}         proxy to the node named in the ID
//	GET  /v1/jobs/{id}/trace   merged gateway + backend span timeline
//	GET  /v1/jobs/{id}/events  streamed SSE proxy (Last-Event-ID passes through)
//	GET  /v1/cluster           ring layout, per-node health, ownership
//	GET  /healthz              ok while >= 1 node is healthy
//	GET  /metrics              gateway families + per-node rollup
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", g.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", g.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleEvents)
	mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return httpobs.Wrap(mux, g.metrics.httpReqs, g.log, "g")
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		gwError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}

	// Record the gateway's half of the trace. The inbound traceparent
	// (if any) is continued; otherwise the gateway starts the trace so
	// the backend's spans still join up with the routing spans here.
	var (
		buf        *obs.SpanBuf
		gwSpan     *obs.ActiveSpan
		routeSpan  *obs.ActiveSpan
		parentSpan obs.SpanID
	)
	reqID := httpobs.RequestID(r.Context())
	if g.traces != nil {
		remote := httpobs.RemoteSpan(r.Context())
		trace := remote.Trace
		if remote.Valid() {
			parentSpan = remote.Span
		} else {
			trace = obs.NewTraceID()
		}
		buf = g.traces.buf(trace)
		gwSpan = buf.StartSpan("gateway.submit", parentSpan, obs.Str("request_id", reqID))
		routeSpan = buf.StartSpan("gateway.route", gwSpan.ID())
	}

	key := g.routeKey(body)
	owner := g.m.Owner(key)
	routeSpan.End(obs.Str("key", shortKey(key)), obs.Str("node", NodeName(owner)))
	if owner == "" {
		g.metrics.noOwner.Inc()
		gwSpan.End(obs.Str("error", "no healthy nodes"))
		w.Header().Set("Retry-After", "1")
		gwError(w, http.StatusServiceUnavailable, "cluster: no healthy nodes to own this job")
		return
	}

	// Continue the trace across the proxy hop: the backend's submit
	// span parents to the gateway's proxy span, not to whatever the
	// client sent, so the merged timeline nests client → gateway →
	// backend.
	var proxySpan *obs.ActiveSpan
	if buf != nil {
		proxySpan = buf.StartSpan("gateway.proxy", gwSpan.ID(), obs.Str("node", NodeName(owner)))
		r.Header.Set(obs.TraceparentHeader,
			obs.SpanContext{Trace: buf.Trace(), Span: proxySpan.ID()}.Traceparent())
	}
	resp, rbody, err := g.exchange(r, owner, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		proxySpan.End(obs.Str("error", err.Error()))
		gwSpan.End(obs.Str("error", "backend unreachable"))
		g.proxyFailure(w, owner, err)
		return
	}
	proxySpan.End(obs.U64("code", uint64(resp.StatusCode)))
	var jobID string
	if resp.StatusCode == http.StatusAccepted {
		var v struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(rbody, &v) == nil {
			jobID = v.ID
			if buf != nil {
				g.traces.bindJob(v.ID, buf.Trace())
			}
		}
		g.metrics.routedJobs.With(NodeName(owner)).Inc()
		logArgs := []any{"request_id", reqID,
			"node", NodeName(owner), "job_id", v.ID, "key", shortKey(key)}
		if buf != nil {
			logArgs = append(logArgs, "trace_id", buf.Trace().String())
		}
		g.log.Info("job routed", logArgs...)
	}
	gwSpan.End(obs.Str("job_id", jobID), obs.U64("code", uint64(resp.StatusCode)))
	g.relay(w, owner, resp, rbody)
}

// handleJob proxies GET /v1/jobs/{id} to the node named in the ID. The
// owner is authoritative even while it is down: the job genuinely
// lives there, and a 502 with Retry-After invites the client to wait
// out the node's restart rather than being told the job does not
// exist. Only IDs that name no member scatter across the healthy ones.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	if node, resp, body, ok := g.readJob(w, r, jobID, "/v1/jobs/"+jobID); ok {
		g.relay(w, node, resp, body)
	}
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the merged span
// timeline of a routed job. The gateway fetches the owning backend's
// raw spans (?format=spans), merges them with its own gateway.submit /
// gateway.route / gateway.proxy spans, and renders one Chrome trace —
// the client sees the full client→gateway→backend timeline from a
// single endpoint. When the gateway has no spans for the job (restart,
// eviction, tracing disabled) the backend's rendered trace proxies
// through unchanged.
func (g *Gateway) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	local := g.traces.spansForJob(jobID)
	if local == nil {
		if node, resp, body, ok := g.readJob(w, r, jobID, "/v1/jobs/"+jobID+"/trace"); ok {
			g.relay(w, node, resp, body)
		}
		return
	}

	node, resp, body, ok := g.readJob(w, r, jobID, "/v1/jobs/"+jobID+"/trace?format=spans")
	if !ok {
		return
	}
	// When the backend has no trace (restarted node, span buffer
	// disabled) the gateway's own spans are still a valid — if thin —
	// timeline.
	spans := local
	if resp.StatusCode == http.StatusOK {
		var doc obs.SpanDoc
		if jerr := json.Unmarshal(body, &doc); jerr == nil {
			spans = append(append([]obs.Span{}, local...), doc.Spans...)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Gpuwalkd-Node", NodeName(node))
	_ = obs.WriteChromeSpans(w, spans)
}

// owner returns the member that minted jobID: the peer whose NodeName
// is the text before the ID's last "-j". It returns "" for an ID that
// names no member — one minted by a backend started without -self, or
// journaled under an older label.
func (g *Gateway) owner(jobID string) string {
	i := strings.LastIndex(jobID, "-j")
	if i < 0 {
		return ""
	}
	for _, p := range g.m.Peers() {
		if NodeName(p) == jobID[:i] {
			return p
		}
	}
	return ""
}

// readJob GETs path from the member holding jobID: its owner, or for an
// ID that names no member the first healthy member that knows it. When
// that fails it answers the client itself — 502 + Retry-After for an
// unreachable backend, 404 when no member has the job — and returns
// ok=false.
func (g *Gateway) readJob(w http.ResponseWriter, r *http.Request, jobID, path string) (node string, resp *http.Response, body []byte, ok bool) {
	var err error
	if node = g.owner(jobID); node != "" {
		resp, body, err = g.exchange(r, node, http.MethodGet, path, nil)
	} else {
		node, resp, body, err = g.scatterFind(r, path)
	}
	switch {
	case err != nil:
		g.proxyFailure(w, node, err)
	case resp == nil:
		gwError(w, http.StatusNotFound, "no such job on any healthy node")
	default:
		return node, resp, body, true
	}
	return "", nil, nil, false
}

// scatterFind asks each healthy member, in ring order, for path and
// returns the first answer that is not a 404. resp is nil when every
// node said 404; err is non-nil only when no node could be reached at
// all.
func (g *Gateway) scatterFind(r *http.Request, path string) (string, *http.Response, []byte, error) {
	var lastErr error
	reached := false
	for _, node := range g.m.Ring().Members() {
		resp, body, err := g.exchange(r, node, http.MethodGet, path, nil)
		if err != nil {
			lastErr = err
			continue
		}
		reached = true
		if resp.StatusCode != http.StatusNotFound {
			return node, resp, body, nil
		}
	}
	if !reached && lastErr != nil {
		return "", nil, nil, lastErr
	}
	return "", nil, nil, nil
}

// exchange performs one proxied request/response with the whole body
// buffered (jobs API payloads are small; SSE uses streamProxy). The
// inbound request's X-Request-Id and Traceparent travel to the backend
// so one ID and one trace label the request on both hops.
func (g *Gateway) exchange(r *http.Request, node, method, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, node+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", httpobs.RequestID(r.Context()))
	if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		g.metrics.proxyErrors.With(NodeName(node)).Inc()
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		g.metrics.proxyErrors.With(NodeName(node)).Inc()
		return nil, nil, err
	}
	g.metrics.proxied.With(NodeName(node)).Inc()
	return resp, b, nil
}

// relay copies a buffered backend response to the client, preserving
// the headers that carry API semantics across the extra hop:
// Retry-After keeps client backoff working, X-Request-Id keeps logs
// correlated, Content-Type keeps bodies parseable. X-Gpuwalkd-Node
// names the backend that actually served the request.
func (g *Gateway) relay(w http.ResponseWriter, node string, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Request-Id", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Gpuwalkd-Node", NodeName(node))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// proxyFailure reports an unreachable backend as 502 with Retry-After:
// the condition is transient (the prober will reroute new work, a
// journaled node will restart), so well-behaved clients back off and
// retry instead of failing the caller.
func (g *Gateway) proxyFailure(w http.ResponseWriter, node string, err error) {
	if node != "" {
		g.log.Warn("proxy failure", "node", NodeName(node), "error", err.Error())
	}
	w.Header().Set("Retry-After", "1")
	gwError(w, http.StatusBadGateway, fmt.Sprintf("cluster: backend unreachable: %v", err))
}

// handleList scatter-gathers GET /v1/jobs across the healthy members
// and merges the job arrays in node order. Nodes that cannot be
// reached are reported in the `unreachable` field rather than silently
// shortening the list.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	members := g.m.Ring().Members()
	merged := make([]json.RawMessage, 0, 64)
	var unreachable []string
	for _, node := range members {
		resp, body, err := g.exchange(r, node, http.MethodGet, "/v1/jobs", nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			unreachable = append(unreachable, NodeName(node))
			continue
		}
		var out struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if json.Unmarshal(body, &out) != nil {
			unreachable = append(unreachable, NodeName(node))
			continue
		}
		merged = append(merged, out.Jobs...)
	}
	payload := map[string]any{"jobs": merged}
	if len(unreachable) > 0 {
		payload["unreachable"] = unreachable
	}
	writeGwJSON(w, http.StatusOK, payload)
}

// handleEvents proxies a job's SSE stream from the node named in the
// ID, flushing per event so progress arrives live through the extra
// hop. The inbound Last-Event-ID travels to the backend, so a client
// resuming through the gateway resumes exactly where it left off. An
// ID that names no member is located first through its JSON read.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	node := g.owner(jobID)
	if node == "" {
		var ok bool
		if node, _, _, ok = g.readJob(w, r, jobID, "/v1/jobs/"+jobID); !ok {
			return
		}
	}
	g.streamProxy(w, r, node, "/v1/jobs/"+jobID+"/events")
}

// sseTerminalEvents end a job's SSE stream; a backend stream that
// closes without one of these died mid-job and the client must be
// told. The names mirror jobd's terminal event log entries.
var sseTerminalEvents = map[string]bool{
	"done": true, "failed": true, "cancelled": true, "error": true,
}

// streamProxy copies an SSE stream event-by-event. Buffering is
// defeated three ways: the response declares X-Accel-Buffering: no
// (for any reverse proxy in front of the gateway), events are written
// whole and flushed at every blank-line boundary, and the upstream
// read uses a line reader rather than large block reads. If the
// backend connection drops before a terminal event, the gateway emits
// a synthetic `error` event so the client sees an explicit terminal
// outcome instead of a silent close.
func (g *Gateway) streamProxy(w http.ResponseWriter, r *http.Request, node, path string) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, node+path, nil)
	if err != nil {
		g.proxyFailure(w, node, err)
		return
	}
	req.Header.Set("X-Request-Id", httpobs.RequestID(r.Context()))
	for _, h := range []string{"Last-Event-ID", "Accept", obs.TraceparentHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := g.sse.Do(req)
	if err != nil {
		g.metrics.proxyErrors.With(NodeName(node)).Inc()
		g.proxyFailure(w, node, err)
		return
	}
	defer resp.Body.Close()
	g.metrics.proxied.With(NodeName(node)).Inc()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		g.relay(w, node, resp, body)
		return
	}

	for _, h := range []string{"Content-Type", "Cache-Control", "X-Request-Id"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Gpuwalkd-Node", NodeName(node))
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, canFlush := w.(http.Flusher)
	if canFlush {
		fl.Flush()
	}

	br := bufio.NewReader(resp.Body)
	var event bytes.Buffer
	lastType := ""
	writeEvent := func() bool {
		if event.Len() == 0 {
			return true
		}
		if _, err := w.Write(event.Bytes()); err != nil {
			return false
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		event.Reset()
		return true
	}
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			trimmed := strings.TrimRight(line, "\r\n")
			if typ, ok := strings.CutPrefix(trimmed, "event: "); ok {
				lastType = typ
			}
			if trimmed == "" {
				if !writeEvent() {
					return // client gone
				}
			} else {
				event.WriteString(trimmed)
				event.WriteByte('\n')
			}
		}
		if err != nil {
			// Flush any complete-but-unterminated tail first.
			if !writeEvent() {
				return
			}
			if r.Context().Err() != nil {
				return // the client hung up; nothing to tell it
			}
			if err == io.EOF && sseTerminalEvents[lastType] {
				return // clean end of stream
			}
			// The backend died mid-stream: turn the silent close into an
			// explicit terminal event the client can act on.
			g.metrics.sseDrops.Inc()
			g.log.Warn("sse upstream dropped", "node", NodeName(node), "error", errString(err))
			payload, _ := json.Marshal(map[string]string{
				"error": fmt.Sprintf("upstream connection to %s lost: %v", NodeName(node), errString(err)),
				"node":  NodeName(node),
			})
			fmt.Fprintf(w, "event: error\ndata: %s\n\n", payload)
			if canFlush {
				fl.Flush()
			}
			return
		}
	}
}

func errString(err error) string {
	if err == io.EOF {
		return "unexpected EOF"
	}
	return err.Error()
}

// handleCluster serves the ring/health status view.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeGwJSON(w, http.StatusOK, g.m.Snapshot("gateway"))
}

// handleHealth: the gateway is healthy while it can route anywhere.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	if g.m.HealthyCount() == 0 {
		w.Header().Set("Retry-After", "1")
		gwError(w, http.StatusServiceUnavailable, "no healthy cluster nodes")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics scrapes every member (healthy or not — a down node
// might still answer /metrics while draining) and writes the gateway's
// own families with every node's samples rolled up under a node label,
// each family declared once (obs.FamilySet.WriteRollup). One scrape,
// one consistent per-node snapshot; unreachable nodes count in
// gateway_rollup_errors_total, this scrape's failures included, and
// are skipped.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypeProm)
	peers := g.m.Peers()
	docs := make([]*obs.PromText, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			doc, err := g.scrapeOne(p)
			if err != nil {
				g.metrics.rollupErrors.With(NodeName(p)).Inc()
				return
			}
			docs[i] = doc
		}(i, p)
	}
	wg.Wait()
	byNode := make(map[string]*obs.PromText, len(peers))
	for i, p := range peers {
		if docs[i] != nil {
			byNode[NodeName(p)] = docs[i]
		}
	}
	_ = g.metrics.fams.WriteRollup(w, byNode)
}

// scrapeOne fetches and parses one member's /metrics.
func (g *Gateway) scrapeOne(peer string) (*obs.PromText, error) {
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.ScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics returned %s", resp.Status)
	}
	return obs.ParsePromText(io.LimitReader(resp.Body, 8<<20))
}

// gatewayMetrics are the gateway's own families, served before the
// per-node rollup on /metrics.
type gatewayMetrics struct {
	fams *obs.FamilySet

	httpReqs     *obs.Family // gateway_http_requests_total{route,code}
	proxied      *obs.Family // gateway_proxied_total{node}
	proxyErrors  *obs.Family // gateway_proxy_errors_total{node}
	routedJobs   *obs.Family // gateway_routed_jobs_total{node}
	rollupErrors *obs.Family // gateway_rollup_errors_total{node}
	noOwner      *obs.Metric // gateway_no_owner_total
	sseDrops     *obs.Metric // gateway_sse_upstream_drops_total
	stageSeconds *obs.Family // gateway_stage_seconds{stage}
}

// gatewayStageForSpan maps a gateway span name to its
// gateway_stage_seconds label; "" means the span is not a stage.
func gatewayStageForSpan(name string) string {
	switch name {
	case "gateway.submit":
		return "submit"
	case "gateway.route":
		return "route"
	case "gateway.proxy":
		return "proxy"
	}
	return ""
}

// observeStage feeds ended gateway spans into the stage histogram; it
// is the traceStore's OnEnd hook.
func (m *gatewayMetrics) observeStage(name string, d time.Duration) {
	if stage := gatewayStageForSpan(name); stage != "" {
		m.stageSeconds.With(stage).Observe(d.Seconds())
	}
}

func newGatewayMetrics(g *Gateway, start time.Time) *gatewayMetrics {
	fs := obs.NewFamilySet()
	m := &gatewayMetrics{
		fams:     fs,
		httpReqs: fs.NewCounter("gateway_http_requests_total", "HTTP requests served by the gateway.", "route", "code"),
		proxied:  fs.NewCounter("gateway_proxied_total", "Requests proxied to a backend node.", "node"),
		proxyErrors: fs.NewCounter("gateway_proxy_errors_total",
			"Proxied exchanges that failed at the transport (backend unreachable or mid-body).", "node"),
		routedJobs: fs.NewCounter("gateway_routed_jobs_total",
			"Jobs accepted by each backend via consistent-hash routing.", "node"),
		rollupErrors: fs.NewCounter("gateway_rollup_errors_total",
			"Backend /metrics scrapes that failed during rollup.", "node"),
		noOwner: fs.NewCounter("gateway_no_owner_total",
			"Submissions rejected because no healthy node could own the key.").With(),
		sseDrops: fs.NewCounter("gateway_sse_upstream_drops_total",
			"SSE streams ended by a synthetic error event after the backend connection dropped.").With(),
		stageSeconds: fs.NewHistogram("gateway_stage_seconds",
			"Gateway request-stage latency by stage (route, proxy, submit).", obs.DefBuckets, "stage"),
	}
	for _, stage := range []string{"route", "proxy", "submit"} {
		m.stageSeconds.With(stage)
	}
	fs.GaugeFunc("gateway_nodes", "Configured cluster members.",
		func() float64 { return float64(len(g.m.Peers())) })
	fs.GaugeFunc("gateway_nodes_healthy", "Members currently passing health probes.",
		func() float64 { return float64(g.m.HealthyCount()) })
	fs.CounterFunc("gateway_ring_rebuilds_total", "Health-driven ring rebuilds.",
		func() float64 { return float64(g.m.Rebuilds()) })
	fs.GaugeFunc("gateway_uptime_seconds", "Seconds since the gateway started.",
		func() float64 { return time.Since(start).Seconds() })
	fs.GaugeFunc("gateway_traces", "Retained request-trace span buffers.",
		func() float64 {
			if g.traces == nil {
				return 0
			}
			return float64(g.traces.traces())
		})
	obs.RegisterRuntimeMetrics(fs)
	return m
}

// Metrics exposes the gateway's family set so the embedding binary can
// add build_info and friends.
func (g *Gateway) Metrics() *obs.FamilySet { return g.metrics.fams }

// shortKey abbreviates a routing key for logs.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func writeGwJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func gwError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// decodeJSONBody decodes a bounded JSON response body.
func decodeJSONBody(r io.Reader, out any) error {
	b, err := io.ReadAll(io.LimitReader(r, 8<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}
