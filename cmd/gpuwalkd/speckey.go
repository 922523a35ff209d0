package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"gpuwalk"
)

// decodeSpec merges a job spec over DefaultConfig, rejecting unknown
// fields.
func decodeSpec(spec json.RawMessage) (gpuwalk.Config, error) {
	cfg := gpuwalk.DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.DisallowUnknownFields()
	err := dec.Decode(&cfg)
	return cfg, err
}

// specKey maps a raw job spec to its cache key: the ConfigHash of the
// spec merged over DefaultConfig, the key the runner's result cache
// stores the result under. A spec that does not decode is a bad spec.
func specKey(spec json.RawMessage) (string, error) {
	cfg, err := decodeSpec(spec)
	if err != nil {
		return "", fmt.Errorf("bad spec: %w", err)
	}
	return gpuwalk.ConfigHash(cfg)
}

// specMemoBytes bounds a specKeys memo by the spec and key bytes it
// holds. Specs are client input of up to 16 MiB each, so the bound
// counts bytes, not entries; it holds about 4,000 of the small specs a
// parameter sweep submits.
const specMemoBytes = 1 << 20

// specKeys memoizes specKey by a spec's exact bytes. Each gpuwalkd
// process keeps one: the gateway routes by it and a backend's admission
// probe looks results up by it, so a resubmitted spec is decoded and
// hashed once per process rather than once per submission. When an
// entry would take the memo past specMemoBytes, the memo is cleared
// first; a spec that alone passes the bound is never kept. It is safe
// for concurrent use.
type specKeys struct {
	mu    sync.Mutex
	m     map[string]specKeyResult
	bytes int // the spec and key bytes m holds
}

type specKeyResult struct {
	key string
	err error
}

func newSpecKeys() *specKeys {
	return &specKeys{m: make(map[string]specKeyResult)}
}

// key returns specKey(spec), computing it only for bytes the memo does
// not hold.
func (k *specKeys) key(spec json.RawMessage) (string, error) {
	k.mu.Lock()
	r, ok := k.m[string(spec)]
	k.mu.Unlock()
	if ok {
		return r.key, r.err
	}
	key, err := specKey(spec)
	if n := len(spec) + len(key); n <= specMemoBytes {
		k.mu.Lock()
		if _, ok := k.m[string(spec)]; !ok { // a concurrent miss may have stored it
			if k.bytes+n > specMemoBytes {
				clear(k.m)
				k.bytes = 0
			}
			k.m[string(spec)] = specKeyResult{key, err}
			k.bytes += n
		}
		k.mu.Unlock()
	}
	return key, err
}
