package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// checkSpecKey requires k.key(spec) to answer what specKey answers, and
// k to hold no more than specMemoBytes, all of them counted.
func checkSpecKey(t *testing.T, k *specKeys, spec []byte) {
	t.Helper()
	wantKey, wantErr := specKey(spec)
	key, err := k.key(spec)
	if key != wantKey || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("memo key(%q) = %q, %v; specKey = %q, %v", spec, key, err, wantKey, wantErr)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	held := 0
	for s, r := range k.m {
		held += len(s) + len(r.key)
	}
	if held != k.bytes || k.bytes > specMemoBytes {
		t.Fatalf("memo holds %d bytes, counts %d, bound %d", held, k.bytes, specMemoBytes)
	}
	if r, ok := k.m[string(spec)]; len(spec)+len(wantKey) <= specMemoBytes && (!ok || r.key != wantKey) {
		t.Fatalf("memo entry for %q = %+v, %v after a lookup", spec, r, ok)
	}
}

// FuzzSpecKey: for arbitrary bytes the memo answers the key or error
// the uncached decode and ConfigHash answer, the second time from its
// entry, and stays within its bound. One memo serves every input, so
// specs that share a prefix or differ in one byte meet in it.
func FuzzSpecKey(f *testing.F) {
	for _, s := range []string{
		`{"Workload":"MVT"}`, `{"Workload":"MVT" }`, `{"Workload":"MVT","Seed":1}`, `{"Workload":"MVT","Seed":12}`,
		`{"Workload":"ATX"}`, `{"Workloud":"MVT"}`, `{"GPU":{"CUs":"two"}}`, `{}`, ``, `not json`, `{"Seed":1}{}`,
		`{"Gen":{"Scale":0.02,"WavefrontsPerCU":2,"InstrsPerWavefront":6}}`,
	} {
		f.Add([]byte(s))
	}
	k := newSpecKeys()
	f.Fuzz(func(t *testing.T, spec []byte) {
		checkSpecKey(t, k, spec)
		checkSpecKey(t, k, spec)
	})
}

// TestSpecKeysByExactBytes: specs that share a prefix, or differ only
// in whitespace, each keep their own entry.
func TestSpecKeysByExactBytes(t *testing.T) {
	k := newSpecKeys()
	specs := []string{`{"Seed":1}`, `{"Seed":12}`, `{"Seed":1 }`, `{"Seed":1,"Workload":"ATX"}`, `{"Seed":1,"Workload":"AT"}`}
	for round := 0; round < 2; round++ {
		for _, s := range specs {
			checkSpecKey(t, k, []byte(s))
		}
	}
	if len(k.m) != len(specs) {
		t.Fatalf("memo holds %d entries for %d specs", len(k.m), len(specs))
	}
}

// TestSpecKeysClearsWhenFull: an entry that would pass the bound clears
// the memo first, and a spec larger than the bound is never kept.
func TestSpecKeysClearsWhenFull(t *testing.T) {
	k := newSpecKeys()
	pad := strings.Repeat(" ", specMemoBytes/4)
	for i := 0; i < 5; i++ {
		checkSpecKey(t, k, []byte(fmt.Sprintf(`{"Seed":%d}%s`, i, pad)))
	}
	if len(k.m) != 2 {
		t.Fatalf("memo holds %d quarter-bound specs after 5, want 2 (cleared at the 4th)", len(k.m))
	}
	huge := json.RawMessage(`{"Seed":9}` + strings.Repeat(" ", specMemoBytes))
	checkSpecKey(t, k, huge)
	if _, ok := k.m[string(huge)]; ok || len(k.m) != 2 {
		t.Fatalf("a spec past the bound was kept, or cleared the memo (%d entries)", len(k.m))
	}
}

// TestSpecKeysConcurrent: handlers key specs from many goroutines at
// once; each answer is specKey's. Run it under -race.
func TestSpecKeysConcurrent(t *testing.T) {
	specs := make([][]byte, 16)
	want := make([]string, len(specs))
	for i := range specs {
		specs[i] = []byte(fmt.Sprintf(`{"Workload":"MVT","Seed":%d}`, i%8))
		if i >= 8 {
			specs[i] = append(specs[i], ' ') // same config, other bytes
		}
		want[i], _ = specKey(specs[i])
	}
	k := newSpecKeys()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(specs)
				if key, err := k.key(specs[i]); err != nil || key != want[i] {
					t.Errorf("key(%s) = %q, %v; want %q", specs[i], key, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if len(k.m) != len(specs) {
		t.Fatalf("memo holds %d entries for %d specs", len(k.m), len(specs))
	}
}
