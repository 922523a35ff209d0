package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
	"time"

	"gpuwalk/internal/simcache"
)

// cacheNode couples a fake HTTP node with a simcache it serves over
// GET /v1/cache/{key} — the backend half of peering, as cmd/gpuwalkd
// wires it (GetLocal, never Get, so fetches cannot recurse).
func cacheNode(t *testing.T) (*fakeNode, *simcache.Cache) {
	t.Helper()
	cache, err := simcache.Open(t.TempDir(), simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	n := newFakeNode(t, func(_ *fakeNode, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
			b, ok, err := cache.GetLocal(r.PathValue("key"))
			if err != nil || !ok {
				http.Error(w, `{"error":"no such cache entry"}`, http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
		})
	})
	return n, cache
}

// keyOwnedBy finds a well-formed key the ring assigns to the given
// member.
func keyOwnedBy(t *testing.T, m *Membership, owner, salt string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("%08x-peering-%s-%d", i*2654435761, salt, i)
		if m.Owner(key) == owner {
			return key
		}
	}
	t.Fatal("no key found for owner; ring cannot be this lopsided")
	return ""
}

// TestPeeringReadThrough is the cache-peering contract end to end: a
// local miss on a key owned by a peer fetches the peer's payload,
// adopts it locally (PeerHits + Puts), and the next Get is a pure
// local hit. Keys the node owns itself never generate wire traffic.
func TestPeeringReadThrough(t *testing.T) {
	nodeA, cacheA := cacheNode(t)
	nodeB, cacheB := cacheNode(t)
	m, err := NewMembership(MemberOptions{
		Peers:         []string{nodeA.srv.URL, nodeB.srv.URL},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peering, err := NewPeering(m, nodeB.srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	cacheB.SetPeer(peering)

	keyA := keyOwnedBy(t, m, nodeA.srv.URL, "stored")
	payload := []byte(`{"result":"simulated-on-a"}`)
	if err := cacheA.Put(keyA, payload); err != nil {
		t.Fatal(err)
	}

	// Miss on B, hit via A.
	got, ok, err := cacheB.Get(keyA)
	if err != nil || !ok {
		t.Fatalf("Get(%s) = ok=%v err=%v, want peer hit", keyA, ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("peer payload = %s, want %s", got, payload)
	}
	st := cacheB.Stats()
	if st.PeerHits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats after peer hit = %+v, want PeerHits=1 Misses=1 Puts=1", st)
	}
	if peering.hits.Load() != 1 || peering.attempts.Load() != 1 {
		t.Fatalf("peering counters = %d hits / %d attempts, want 1/1",
			peering.hits.Load(), peering.attempts.Load())
	}

	// Second read: pure local hit, no new wire traffic.
	if _, ok, _ := cacheB.Get(keyA); !ok {
		t.Fatal("adopted payload not served locally on the second Get")
	}
	if got := peering.attempts.Load(); got != 1 {
		t.Fatalf("second Get made %d total fetch attempts, want still 1", got)
	}

	// A key B owns itself: the peer is never asked.
	keyB := keyOwnedBy(t, m, NormalizeMust(t, nodeB.srv.URL), "own")
	if _, ok, err := cacheB.Get(keyB); ok || err != nil {
		t.Fatalf("Get(own key) = ok=%v err=%v, want plain miss", ok, err)
	}
	if got := peering.attempts.Load(); got != 1 {
		t.Fatalf("own-key miss attempted a peer fetch (attempts=%d)", got)
	}

	// Peer misses too: plain miss, no error surfaced.
	keyA2 := keyOwnedBy(t, m, nodeA.srv.URL, "absent") // exists on neither node
	if _, ok, _ := cacheB.Get(keyA2); ok {
		t.Fatal("Get of a key stored nowhere reported a hit")
	}
}

// TestPeeringPeerDown: an unreachable owner degrades to a plain miss —
// the node simulates instead of failing the job — and the error is
// counted.
func TestPeeringPeerDown(t *testing.T) {
	nodeA, _ := cacheNode(t)
	nodeB, cacheB := cacheNode(t)
	m, err := NewMembership(MemberOptions{
		Peers:         []string{nodeA.srv.URL, nodeB.srv.URL},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peering, err := NewPeering(m, nodeB.srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	cacheB.SetPeer(peering)

	keyA := keyOwnedBy(t, m, nodeA.srv.URL, "down")
	nodeA.srv.Close()
	_, ok, err := cacheB.Get(keyA)
	if ok || err != nil {
		t.Fatalf("Get with dead peer = ok=%v err=%v, want clean miss", ok, err)
	}
	if peering.errors.Load() != 1 {
		t.Fatalf("peer error counter = %d, want 1", peering.errors.Load())
	}
}

// TestPeeringMissOnPeer: the owner not having the key is a normal
// miss (404), not an error.
func TestPeeringMissOnPeer(t *testing.T) {
	nodeA, _ := cacheNode(t)
	nodeB, cacheB := cacheNode(t)
	m, err := NewMembership(MemberOptions{
		Peers:         []string{nodeA.srv.URL, nodeB.srv.URL},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peering, err := NewPeering(m, nodeB.srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	cacheB.SetPeer(peering)

	keyA := keyOwnedBy(t, m, nodeA.srv.URL, "miss")
	_, ok, err := cacheB.Get(keyA)
	if ok || err != nil {
		t.Fatalf("Get = ok=%v err=%v, want miss", ok, err)
	}
	if peering.errors.Load() != 0 || peering.attempts.Load() != 1 {
		t.Fatalf("counters = %d errors / %d attempts, want 0/1",
			peering.errors.Load(), peering.attempts.Load())
	}
	if st := cacheB.Stats(); st.PeerHits != 0 {
		t.Fatalf("PeerHits = %d on a peer miss", st.PeerHits)
	}
}
