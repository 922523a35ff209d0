package gpuwalk

import (
	"context"
	"encoding/json"
	"fmt"

	"gpuwalk/internal/obs"
	"gpuwalk/internal/simcache"
)

// ResultCache is a persistent content-addressed store of simulation
// results, keyed by ConfigHash. It is what lets an interrupted sweep
// resume incrementally and a repeated one return near-instantly: the
// cached payload is the byte-exact JSON encoding of the Result a fresh
// simulation of the same config would produce.
//
// Hits are served verbatim: RunCachedJSON returns the stored payload
// as digest-checked, without decoding and re-encoding it. The
// payload slices hits return are shared by every caller that holds a
// hit on the same key, and are read-only. Because stored payloads are
// never re-encoded, any change to Result's JSON shape must bump
// gpu.ModelVersion (SimVersion), which is part of every key.
//
// cmd/gpuwalkd serves jobs through one, and examples/sensitivity shows
// the client pattern. See docs/SERVER.md for the on-disk layout.
type ResultCache = simcache.Cache

// ResultCacheStats counts cache activity (hits, misses, puts,
// evictions, integrity-check drops).
type ResultCacheStats = simcache.Stats

// OpenResultCache opens (creating if needed) a result cache rooted at
// dir. maxBytes caps the store's payload size with LRU eviction;
// 0 means unlimited. Entries are written atomically and digest-checked
// when read from disk, so a crashed writer can never corrupt later runs.
func OpenResultCache(dir string, maxBytes int64) (*ResultCache, error) {
	return simcache.Open(dir, simcache.Options{MaxBytes: maxBytes})
}

// RunCached is Run with read-through/write-through persistence: a
// config already in the cache returns its stored result without
// simulating (hit=true); a miss simulates under ctx and stores the
// result before returning. Configs that cannot be hashed (custom
// schedulers) bypass the cache and always simulate, as does a nil
// cache, so callers can make persistence an option without branching.
//
// When ctx carries a request-trace span (obs.ContextWithSpanRef — the
// job server threads one per work item), the lookup, simulation, and
// store are each recorded as child spans (cache.lookup, sim.run,
// cache.put), and a run with a Config.Obs.Tracer attached stamps the
// trace ID into the sim trace's metadata so the two timelines
// cross-reference. Without a span in ctx all of this is skipped at the
// cost of one pointer check.
func RunCached(ctx context.Context, c *ResultCache, cfg Config) (res Result, hit bool, err error) {
	res, payload, hit, err := runCached(ctx, c, cfg)
	if hit {
		if err := json.Unmarshal(payload, &res); err != nil {
			return Result{}, false, fmt.Errorf("gpuwalk: decoding cached result: %w", err)
		}
	}
	return res, hit, err
}

// RunCachedJSON is RunCached returning the Result's JSON encoding, the
// form gpuwalkd serves. A hit returns the stored payload verbatim; it
// may be shared with other callers and must not be modified. A miss
// returns the bytes just stored, and a run that bypasses the cache
// json.Marshal of its Result. For one config all three are
// byte-identical.
func RunCachedJSON(ctx context.Context, c *ResultCache, cfg Config) (payload []byte, hit bool, err error) {
	res, payload, hit, err := runCached(ctx, c, cfg)
	if payload == nil && err == nil {
		payload, err = json.Marshal(res)
	}
	return payload, hit, err
}

// runCached is the one lookup/simulate/store flow behind RunCached and
// RunCachedJSON. A hit returns only the stored payload; a miss returns
// the fresh Result and the bytes stored for it; a run that bypasses the
// cache returns no payload.
func runCached(ctx context.Context, c *ResultCache, cfg Config) (res Result, payload []byte, hit bool, err error) {
	ref := obs.SpanRefFrom(ctx)
	if ref.Valid() && cfg.Obs.Tracer != nil {
		cfg.Obs.Tracer.SetMeta("trace_id", ref.Buf.Trace().String())
	}
	runTraced := func() (Result, error) {
		simSpan := ref.Start("sim.run")
		r, err := RunContext(ctx, cfg)
		if err != nil {
			simSpan.End(obs.Str("error", "run failed"))
		} else {
			simSpan.End()
		}
		return r, err
	}
	key, err := cacheKey(c, cfg)
	if err == ErrUncacheable {
		res, err = runTraced()
		return res, nil, false, err
	}
	if err != nil {
		return Result{}, nil, false, err
	}
	payload, hit, err = lookup(ctx, key, func(key string) ([]byte, bool, error) {
		return c.GetContext(ctx, key)
	})
	if err != nil || hit {
		return Result{}, payload, hit, err
	}
	res, err = runTraced()
	if err != nil {
		return Result{}, nil, false, err
	}
	putSpan := ref.Start("cache.put")
	payload, perr := c.PutJSON(key, res)
	putSpan.End()
	if perr != nil {
		// The simulation succeeded; a failing cache write is still an
		// error (the store is misconfigured or the disk is full) but the
		// result is returned alongside it so callers can choose to
		// proceed uncached.
		return res, payload, false, fmt.Errorf("gpuwalk: caching result: %w", perr)
	}
	return res, payload, false, nil
}

// LookupCachedJSON is RunCachedJSON's lookup alone, by key, in c's
// local store: it returns the payload stored under key, a config's
// ConfigHash, on a hit, and never simulates or asks c's peer. A nil
// cache reports a miss. A miss is not counted in c's Stats: a caller
// probes with it before running the config, and the run's own lookup
// counts the miss. gpuwalkd answers cache hits at admission with it,
// keying each spec once per process. The payload is shared and
// read-only, as RunCachedJSON's hits are.
func LookupCachedJSON(ctx context.Context, c *ResultCache, key string) (payload []byte, hit bool) {
	if c == nil {
		return nil, false
	}
	payload, hit, _ = lookup(ctx, key, c.Probe)
	return payload, hit
}

// cacheKey is runCached's key step: cfg's ConfigHash, or
// ErrUncacheable when cfg bypasses the cache, because c is nil or cfg
// cannot be hashed (custom schedulers).
func cacheKey(c *ResultCache, cfg Config) (string, error) {
	if c == nil {
		return "", ErrUncacheable
	}
	return ConfigHash(cfg)
}

// lookup reads key through get under a cache.lookup span on ctx's
// request trace.
func lookup(ctx context.Context, key string, get func(key string) ([]byte, bool, error)) (payload []byte, hit bool, err error) {
	span := obs.SpanRefFrom(ctx).Start("cache.lookup")
	payload, hit, err = get(key)
	span.End(obs.U64("hit", b2uCache(hit)))
	return payload, hit, err
}

func b2uCache(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
