package gpuwalk_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"gpuwalk"
	"gpuwalk/internal/obs"
)

// tinyCachedConfig is a fast config for cache tests: small machine,
// small footprint, still enough translation traffic to populate every
// stat the Result carries.
func tinyCachedConfig() gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = "MVT"
	cfg.GPU.CUs = 2
	cfg.GPU.WavefrontsPerCU = 2
	cfg.Gen = gpuwalk.GenConfig{Scale: 0.02, WavefrontsPerCU: 2, InstrsPerWavefront: 6}
	cfg.Seed = 11
	return cfg
}

// TestRunCachedDifferential is the cache-correctness acceptance test:
// the result served from the cache (hit path) must be byte-identical,
// once serialized, to a fresh simulation of the same config (miss
// path), and the hit must not re-simulate.
func TestRunCachedDifferential(t *testing.T) {
	cache, err := gpuwalk.OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCachedConfig()

	missRes, hit, err := gpuwalk.RunCached(context.Background(), cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first run reported a cache hit")
	}
	hitRes, hit, err := gpuwalk.RunCached(context.Background(), cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second identical run missed the cache")
	}
	freshRes, err := gpuwalk.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	enc := func(r gpuwalk.Result) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if enc(missRes) != enc(freshRes) {
		t.Fatal("miss-path result differs from a fresh simulation")
	}
	if enc(hitRes) != enc(freshRes) {
		t.Fatal("cached (hit-path) result differs from a fresh simulation")
	}
	if st := cache.Stats(); st.Puts != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 put and 1 hit", st)
	}
}

// TestRunCachedJSONByteIdentity: on the payload path a miss returns
// exactly json.Marshal of a fresh Run, and after the cache is closed
// and reopened (a daemon restart) hits return the same bytes, read from
// disk verbatim, with two hits sharing one backing array. The struct
// form decodes those bytes back to the same Result.
func TestRunCachedJSONByteIdentity(t *testing.T) {
	cfg := tinyCachedConfig()
	key, err := gpuwalk.ConfigHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := gpuwalk.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	cache, err := gpuwalk.OpenResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The lookup alone misses without counting the miss: the run's own
	// lookup counts it.
	if _, hit := gpuwalk.LookupCachedJSON(ctx, cache, key); hit || cache.Stats().Misses != 0 {
		t.Fatalf("lookup before any run: hit=%v, %d misses counted", hit, cache.Stats().Misses)
	}
	miss, hit, err := gpuwalk.RunCachedJSON(ctx, cache, cfg)
	if err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(miss, want) {
		t.Fatal("miss payload differs from json.Marshal of a fresh Run")
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("a probed miss then run counted %d misses, want 1", st.Misses)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	cache, err = gpuwalk.OpenResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	first, hit, err := gpuwalk.RunCachedJSON(ctx, cache, cfg)
	if err != nil || !hit {
		t.Fatalf("run after reopen: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("hit payload after reopen differs from the miss payload")
	}
	second, hit, err := gpuwalk.RunCachedJSON(ctx, cache, cfg)
	if err != nil || !hit {
		t.Fatalf("second hit: hit=%v err=%v", hit, err)
	}
	if &second[0] != &first[0] {
		t.Fatal("two hits on one key returned separate copies")
	}
	probed, hit := gpuwalk.LookupCachedJSON(ctx, cache, key)
	if !hit || &probed[0] != &first[0] {
		t.Fatalf("lookup after the hits: hit=%v, shared=%v", hit, hit && &probed[0] == &first[0])
	}
	runtime.KeepAlive(first)

	res, hit, err := gpuwalk.RunCached(ctx, cache, cfg)
	if err != nil || !hit {
		t.Fatalf("struct-form hit: hit=%v err=%v", hit, err)
	}
	if got, _ := json.Marshal(res); !bytes.Equal(got, want) {
		t.Fatal("struct-form hit differs from a fresh Run")
	}

	uncached, hit, err := gpuwalk.RunCachedJSON(ctx, nil, cfg)
	if err != nil || hit || !bytes.Equal(uncached, want) {
		t.Fatalf("nil-cache payload: hit=%v err=%v equal=%v", hit, err, bytes.Equal(uncached, want))
	}
	if _, hit := gpuwalk.LookupCachedJSON(ctx, nil, key); hit {
		t.Fatal("lookup in a nil cache hit")
	}
}

// TestRunCachedDistinguishesConfigs: different configs take different
// cache entries.
func TestRunCachedDistinguishesConfigs(t *testing.T) {
	cache, err := gpuwalk.OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := tinyCachedConfig()
	b := tinyCachedConfig()
	b.Scheduler = gpuwalk.SIMTAware
	ra, hit, err := gpuwalk.RunCached(context.Background(), cache, a)
	if err != nil || hit {
		t.Fatalf("first: hit=%v err=%v", hit, err)
	}
	rb, hit, err := gpuwalk.RunCached(context.Background(), cache, b)
	if err != nil || hit {
		t.Fatalf("different config served from cache: hit=%v err=%v", hit, err)
	}
	if ra.Scheduler == rb.Scheduler {
		t.Fatal("results do not reflect their configs")
	}
}

// TestRunCachedTracedByteIdentity: attaching a request trace must not
// perturb the simulation — a traced run's result is byte-identical to
// an untraced run of the same config — while the trace itself records
// the lookup, simulation and store stages, and a sim tracer attached to
// the same run is stamped with the trace ID.
func TestRunCachedTracedByteIdentity(t *testing.T) {
	cfg := tinyCachedConfig()
	plain, err := gpuwalk.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := gpuwalk.OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := obs.NewSpanBuf("test", obs.NewTraceID(), 0)
	root := buf.StartSpan("root", obs.SpanID{})
	ctx := obs.ContextWithSpanRef(context.Background(),
		obs.SpanRef{Buf: buf, Span: root.ID()})
	tracedCfg := cfg
	tracedCfg.Obs.Tracer = gpuwalk.NewTracer()

	traced, hit, err := gpuwalk.RunCached(ctx, cache, tracedCfg)
	if err != nil || hit {
		t.Fatalf("traced run: hit=%v err=%v", hit, err)
	}
	enc := func(r gpuwalk.Result) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if enc(traced) != enc(plain) {
		t.Fatal("traced run's result differs from an untraced run")
	}

	got := map[string]bool{}
	for _, s := range buf.Spans() {
		got[s.Name] = true
	}
	for _, want := range []string{"cache.lookup", "sim.run", "cache.put"} {
		if !got[want] {
			t.Fatalf("span %q not recorded; got %v", want, got)
		}
	}
	if v := tracedCfg.Obs.Tracer.Meta("trace_id"); v != buf.Trace().String() {
		t.Fatalf("sim tracer meta trace_id = %q, want %s", v, buf.Trace())
	}

	// The cache hit path is traced too, and stays byte-identical.
	hitRes, hit, err := gpuwalk.RunCached(ctx, cache, cfg)
	if err != nil || !hit {
		t.Fatalf("hit run: hit=%v err=%v", hit, err)
	}
	if enc(hitRes) != enc(plain) {
		t.Fatal("traced hit-path result differs")
	}

	// So is the lookup alone: one more cache.lookup span under root.
	key, err := gpuwalk.ConfigHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lookups := func() int {
		n := 0
		for _, s := range buf.Spans() {
			if s.Name == "cache.lookup" && s.Parent == root.ID() {
				n++
			}
		}
		return n
	}
	before := lookups()
	if _, hit := gpuwalk.LookupCachedJSON(ctx, cache, key); !hit || lookups() != before+1 {
		t.Fatalf("traced lookup: hit=%v, cache.lookup spans %d → %d", hit, before, lookups())
	}
}

// TestRunCachedCancelledMissesCleanly: a cancelled miss stores nothing.
func TestRunCachedCancelledMissesCleanly(t *testing.T) {
	cache, err := gpuwalk.OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := gpuwalk.RunCached(ctx, cache, tinyCachedConfig()); err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if cache.Len() != 0 {
		t.Fatal("cancelled run left a cache entry")
	}
}
