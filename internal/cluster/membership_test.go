package cluster

import (
	"testing"
	"time"
)

// TestMembershipHealthTransitions: a failing probe removes the node
// from the ring (its keys reassign to survivors), and a recovering
// probe restores the original assignment.
func TestMembershipHealthTransitions(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	m, err := NewMembership(MemberOptions{
		Peers:         []string{a.srv.URL, b.srv.URL},
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	keys := sampleKeys(500)
	baseline := make([]string, len(keys))
	for i, k := range keys {
		baseline[i] = m.Owner(k)
	}

	m.probeAll()
	if m.HealthyCount() != 2 {
		t.Fatalf("healthy = %d, want 2", m.HealthyCount())
	}
	if m.Rebuilds() != 0 {
		t.Fatalf("ring rebuilt %d times with no transitions", m.Rebuilds())
	}

	b.healthy.Store(false)
	m.probeAll()
	if m.HealthyCount() != 1 {
		t.Fatalf("healthy = %d after b went down, want 1", m.HealthyCount())
	}
	if m.Rebuilds() != 1 {
		t.Fatalf("rebuilds = %d, want 1", m.Rebuilds())
	}
	for _, k := range keys {
		if got := m.Owner(k); got != a.srv.URL {
			t.Fatalf("Owner(%q) = %q with only a healthy", k, got)
		}
	}
	if healthyIn(m, NormalizeMust(t, b.srv.URL)) {
		t.Fatal("b still reported healthy")
	}

	b.healthy.Store(true)
	m.probeAll()
	if m.Rebuilds() != 2 {
		t.Fatalf("rebuilds = %d after recovery, want 2", m.Rebuilds())
	}
	// Recovery restores the exact original assignment — the property
	// cache repatriation depends on.
	for i, k := range keys {
		if got := m.Owner(k); got != baseline[i] {
			t.Fatalf("Owner(%q) = %q after recovery, want %q", k, got, baseline[i])
		}
	}

	st := m.Snapshot("test")
	if st.Healthy != 2 || st.RingRebuilds != 2 || len(st.Members) != 2 {
		t.Fatalf("snapshot = %+v", st)
	}
	for _, n := range st.Members {
		if n.LastProbe == nil {
			t.Fatalf("member %s has no probe timestamp", n.Node)
		}
	}
}

func NormalizeMust(t *testing.T, raw string) string {
	t.Helper()
	u, err := NormalizeURL(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// healthyIn reports whether peerURL is healthy in m's status view.
func healthyIn(m *Membership, peerURL string) bool {
	for _, ns := range m.Snapshot("test").Members {
		if ns.URL == peerURL {
			return ns.Healthy
		}
	}
	return false
}

func TestNormalizeURL(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{"10.0.0.1:8077", "http://10.0.0.1:8077", false},
		{"http://host:1/", "http://host:1", false},
		{" https://host:2 ", "https://host:2", false},
		{"", "", true},
		{"http://", "", true},
	}
	for _, c := range cases {
		got, err := NormalizeURL(c.in)
		if c.wantErr != (err != nil) {
			t.Errorf("NormalizeURL(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("NormalizeURL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if NodeName("http://host:8077") != "host:8077" {
		t.Errorf("NodeName = %q", NodeName("http://host:8077"))
	}
}

// TestMembershipProberLifecycle: Start probes synchronously, the
// ticker keeps probing, Close stops it (twice is safe).
func TestMembershipProberLifecycle(t *testing.T) {
	a := newFakeNode(t)
	m, err := NewMembership(MemberOptions{
		Peers:         []string{a.srv.URL},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	a.healthy.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for m.HealthyCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("prober never noticed the node going down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Close()
	m.Close() // idempotent
}
