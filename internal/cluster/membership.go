package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// MemberOptions configures a Membership.
type MemberOptions struct {
	// Peers are the cluster's node base URLs (e.g.
	// "http://10.0.0.1:8077"). The full static list, the same on every
	// member and on the gateway — ring identity depends on it.
	Peers []string
	// VNodes is the virtual-node count per member (DefaultVNodes when 0).
	VNodes int
	// ProbeInterval is the health-probe cadence. Defaults to 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz request. Defaults to 1s.
	ProbeTimeout time.Duration
	// HTTP is the probe client; nil uses a private default.
	HTTP *http.Client
	// Logger receives up/down transitions. Nil discards.
	Logger *slog.Logger
}

// nodeState is one member's live health record.
type nodeState struct {
	url       string
	healthy   bool
	lastErr   string
	lastProbe time.Time
	// transitions counts healthy<->unhealthy flips, a cheap flap signal.
	transitions uint64
}

// Membership tracks which of a static peer list is alive and keeps a
// consistent-hash ring over the healthy subset. The ring is rebuilt —
// deterministically, from the sorted healthy member list — whenever a
// probe flips a node's health, so a failed node's token ranges
// reassign identically on every observer that sees the same liveness.
//
// Until the first probe round completes, every peer is assumed healthy
// (optimistic start): a cold cluster must be routable before its first
// probe tick.
type Membership struct {
	opts  MemberOptions
	log   *slog.Logger
	hc    *http.Client
	peers []string // normalized, sorted, deduped

	mu       sync.RWMutex
	state    map[string]*nodeState
	ring     *Ring
	rebuilds uint64

	stop   chan struct{}
	probed sync.WaitGroup
}

// NormalizeURL canonicalizes a peer URL: a missing scheme gets
// "http://", trailing slashes are trimmed. Errors surface bad -peers
// entries at startup rather than as misrouted traffic later.
func NormalizeURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("cluster: empty peer URL")
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("cluster: bad peer URL %q: %w", raw, err)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: peer URL %q has no host", raw)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	return u.String(), nil
}

// NodeName returns the short label for a peer URL — its host:port —
// used as the metrics node label and in status output.
func NodeName(peerURL string) string {
	if u, err := url.Parse(peerURL); err == nil && u.Host != "" {
		return u.Host
	}
	return peerURL
}

// NewMembership validates and normalizes the peer list and returns a
// membership with every node optimistically healthy. Call Start to
// begin probing.
func NewMembership(opts MemberOptions) (*Membership, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	hc := opts.HTTP
	if hc == nil {
		hc = &http.Client{}
	}
	var peers []string
	for _, p := range opts.Peers {
		n, err := NormalizeURL(p)
		if err != nil {
			return nil, err
		}
		peers = append(peers, n)
	}
	peers = dedupSorted(peers)
	m := &Membership{
		opts:  opts,
		log:   log,
		hc:    hc,
		peers: peers,
		state: make(map[string]*nodeState, len(peers)),
		stop:  make(chan struct{}),
	}
	for _, p := range peers {
		m.state[p] = &nodeState{url: p, healthy: true}
	}
	m.ring = BuildRing(peers, opts.VNodes)
	return m, nil
}

// Start launches the background prober. One synchronous probe round
// runs first, so callers that Start before serving begin with real
// liveness rather than the optimistic default.
func (m *Membership) Start() {
	m.probeAll()
	m.probed.Add(1)
	go func() {
		defer m.probed.Done()
		t := time.NewTicker(m.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.probeAll()
			case <-m.stop:
				return
			}
		}
	}()
}

// Close stops the prober.
func (m *Membership) Close() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.probed.Wait()
}

// probeAll probes every peer concurrently and rebuilds the ring if any
// health changed.
func (m *Membership) probeAll() {
	type verdict struct {
		url     string
		healthy bool
		errText string
	}
	results := make([]verdict, len(m.peers))
	var wg sync.WaitGroup
	for i, p := range m.peers {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			err := m.probeOne(p)
			v := verdict{url: p, healthy: err == nil}
			if err != nil {
				v.errText = err.Error()
			}
			results[i] = v
		}(i, p)
	}
	wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	changed := false
	for _, v := range results {
		st := m.state[v.url]
		st.lastProbe = now
		st.lastErr = v.errText
		if st.healthy != v.healthy {
			st.healthy = v.healthy
			st.transitions++
			changed = true
			if v.healthy {
				m.log.Info("cluster node up", "node", NodeName(v.url))
			} else {
				m.log.Warn("cluster node down", "node", NodeName(v.url), "error", v.errText)
			}
		}
	}
	if changed {
		m.rebuildRingLocked()
	}
}

// probeOne checks one peer's /healthz. A 503 (draining) counts as
// unhealthy: a draining node rejects new jobs, so routing to it only
// manufactures retries.
func (m *Membership) probeOne(peer string) error {
	ctx, cancel := context.WithTimeout(context.Background(), m.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %s", resp.Status)
	}
	return nil
}

// rebuildRingLocked rebuilds the ring from the healthy members; with
// none healthy the ring is empty and routing reports no owner. Caller
// holds m.mu.
func (m *Membership) rebuildRingLocked() {
	var healthy []string
	for _, p := range m.peers {
		if m.state[p].healthy {
			healthy = append(healthy, p)
		}
	}
	m.ring = BuildRing(healthy, m.opts.VNodes)
	m.rebuilds++
	m.log.Info("cluster ring rebuilt", "healthy", len(healthy), "members", len(m.peers))
}

// Ring returns the current ring (over the healthy members). The
// returned ring is immutable; hold it for a consistent multi-key view.
func (m *Membership) Ring() *Ring {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring
}

// Owner returns the healthy node owning key, or "" when none is.
func (m *Membership) Owner(key string) string {
	return m.Ring().Owner(key)
}

// Healthy reports whether the given (normalized) peer URL is healthy.
// Unknown URLs are unhealthy.
func (m *Membership) Healthy(peerURL string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.state[peerURL]
	return ok && st.healthy
}

// HealthyCount returns how many members are currently healthy.
func (m *Membership) HealthyCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, st := range m.state {
		if st.healthy {
			n++
		}
	}
	return n
}

// Peers returns the normalized, sorted member URLs (healthy or not).
func (m *Membership) Peers() []string {
	return append([]string(nil), m.peers...)
}

// Rebuilds returns how many times the ring has been rebuilt by health
// transitions.
func (m *Membership) Rebuilds() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.rebuilds
}

// NodeStatus is one member's health in the /v1/cluster view.
type NodeStatus struct {
	Node      string     `json:"node"`
	URL       string     `json:"url"`
	Healthy   bool       `json:"healthy"`
	LastError string     `json:"last_error,omitempty"`
	LastProbe *time.Time `json:"last_probe,omitempty"`
	// OwnedFraction is the share of the key space this node owns on the
	// current (healthy-members) ring; 0 while the node is down.
	OwnedFraction float64 `json:"owned_fraction"`
	Transitions   uint64  `json:"health_transitions"`
}

// Status is the wire shape of GET /v1/cluster.
type Status struct {
	// Self names the responding process ("gateway", or a node name).
	Self string `json:"self"`
	// Members is every configured peer, sorted by URL.
	Members []NodeStatus `json:"members"`
	Healthy int          `json:"healthy"`
	VNodes  int          `json:"vnodes"`
	// RingRebuilds counts health-driven ring rebuilds since start.
	RingRebuilds uint64 `json:"ring_rebuilds"`
}

// Snapshot assembles the membership's status view. self labels the
// responding process.
func (m *Membership) Snapshot(self string) Status {
	m.mu.RLock()
	defer m.mu.RUnlock()
	own := m.ring.Ownership()
	out := Status{Self: self, VNodes: m.ring.VNodes(), RingRebuilds: m.rebuilds}
	for _, p := range m.peers {
		st := m.state[p]
		ns := NodeStatus{
			Node:          NodeName(p),
			URL:           p,
			Healthy:       st.healthy,
			LastError:     st.lastErr,
			OwnedFraction: own[p],
			Transitions:   st.transitions,
		}
		if !st.lastProbe.IsZero() {
			t := st.lastProbe
			ns.LastProbe = &t
		}
		if st.healthy {
			out.Healthy++
		}
		out.Members = append(out.Members, ns)
	}
	return out
}

// FetchStatus retrieves a gateway's (or peered node's) /v1/cluster
// view — the typed client half of the status endpoint, which the
// cluster chaos test polls until the ring is healthy.
func FetchStatus(ctx context.Context, hc *http.Client, baseURL string) (Status, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(baseURL, "/")+"/v1/cluster", nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, fmt.Errorf("cluster: status endpoint returned %s", resp.Status)
	}
	var st Status
	if err := decodeJSONBody(resp.Body, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// discardHandler is a slog.Handler that drops everything (slog's
// DiscardHandler arrived after this module's Go baseline).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
