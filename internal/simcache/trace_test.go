package simcache

import (
	"context"
	"testing"

	"gpuwalk/internal/obs"
)

type scriptedPeer struct {
	payload []byte
	ok      bool
	calls   int
}

func (p *scriptedPeer) Fetch(key string) ([]byte, bool) {
	p.calls++
	return p.payload, p.ok
}

// TestGetContextRecordsPeerFetchSpan: a local miss answered by the peer
// shows up on the request trace as a cache.peer_fetch span; local hits
// and peerless misses record nothing.
func TestGetContextRecordsPeerFetchSpan(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := "aabbccdd00112233"
	peer := &scriptedPeer{payload: []byte("payload"), ok: true}
	c.SetPeer(peer)

	buf := obs.NewSpanBuf("node", obs.NewTraceID(), 0)
	parent := buf.StartSpan("item", obs.SpanID{})
	ctx := obs.ContextWithSpanRef(context.Background(),
		obs.SpanRef{Buf: buf, Span: parent.ID()})

	b, ok, err := c.GetContext(ctx, key)
	if err != nil || !ok || string(b) != "payload" {
		t.Fatalf("peer read-through failed: ok=%v err=%v b=%q", ok, err, b)
	}
	spans := buf.Spans()
	if len(spans) != 1 || spans[0].Name != "cache.peer_fetch" {
		t.Fatalf("spans = %+v, want one cache.peer_fetch", spans)
	}
	if spans[0].Parent != parent.ID() {
		t.Fatal("peer fetch span not parented to the item span")
	}
	var hit, bytes uint64 = 99, 0
	for _, a := range spans[0].Attrs {
		switch a.Key {
		case "hit":
			hit = a.Val
		case "bytes":
			bytes = a.Val
		}
	}
	if hit != 1 || bytes != uint64(len("payload")) {
		t.Fatalf("peer fetch attrs wrong: %+v", spans[0].Attrs)
	}

	// The adopted payload was stored: the next get is a local hit and
	// records no further spans.
	if _, ok, _ := c.GetContext(ctx, key); !ok {
		t.Fatal("adopted payload not stored locally")
	}
	if peer.calls != 1 || len(buf.Spans()) != 1 {
		t.Fatalf("local hit went back to the peer (calls=%d, spans=%d)", peer.calls, len(buf.Spans()))
	}

	// A bare context (no span ref) traces nothing and still works.
	c2, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetPeer(&scriptedPeer{ok: false})
	if _, ok, err := c2.GetContext(context.Background(), key); ok || err != nil {
		t.Fatalf("peerless miss: ok=%v err=%v", ok, err)
	}
}
