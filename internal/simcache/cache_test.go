package simcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

// objectFile returns the path of the object holding key's payload.
func objectFile(t *testing.T, c *Cache, key string) string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		t.Fatalf("no entry for %s", key)
	}
	return c.objectPath(e.key, e.digest)
}

// lruKeys lists c's keys from the least to the most recently used.
func lruKeys(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for e := c.lru.next; e != &c.lru; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

func mustKey(t *testing.T, parts ...any) string {
	t.Helper()
	k, err := Key(parts...)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return k
}

func TestPutGetRoundTrip(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	key := mustKey(t, "config", 1)
	payload := []byte(`{"cycles":12345}`)
	if err := c.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	if _, ok, _ := c.Get(mustKey(t, "config", 2)); ok {
		t.Fatal("unexpected hit for absent key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
	}
}

func TestPersistenceAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	key := mustKey(t, "persist")
	c := open(t, dir, Options{})
	if err := c.Put(key, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir, Options{})
	got, ok, err := c2.Get(key)
	if err != nil || !ok || string(got) != "hello" {
		t.Fatalf("reopened Get = %q, %v, %v", got, ok, err)
	}
}

func TestCorruptPayloadIsAMiss(t *testing.T) {
	// Flipped, short, long and emptied objects. The long one starts
	// with the whole payload: only its length gives it away.
	for _, tampered := range []string{"tampered!!", "payload-v", "payload-v1x", ""} {
		dir := t.TempDir()
		c := open(t, dir, Options{})
		key := mustKey(t, "x")
		if err := c.Put(key, []byte("payload-v1")); err != nil {
			t.Fatal(err)
		}
		// Rewrite the object behind the cache's back, and read it through
		// a fresh handle, which holds no payload in memory.
		path := objectFile(t, c, key)
		if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		c = open(t, dir, Options{})
		if _, ok, err := c.Get(key); ok || err != nil {
			t.Fatalf("%q: tampered Get = ok=%v err=%v, want miss", tampered, ok, err)
		}
		if st := c.Stats(); st.Corrupt != 1 {
			t.Fatalf("%q: Corrupt = %d, want 1", tampered, st.Corrupt)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%q: corrupt object not removed: %v", tampered, err)
		}
	}
}

// TestIndexRebuildFromObjects: the index is rebuilt from the object
// files alone. A handle that is never closed, as in a crash, leaves
// objects from which a fresh Open serves and counts every entry.
func TestIndexRebuildFromObjects(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	keys := []string{mustKey(t, "rebuild", 0), mustKey(t, "rebuild", 1)}
	for i, key := range keys {
		if err := c.Put(key, []byte(fmt.Sprintf("still-here-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c2 := open(t, dir, Options{})
	if c2.Len() != 2 || c2.Size() != c.Size() {
		t.Fatalf("rebuilt cache has %d entries, %d bytes; want 2, %d", c2.Len(), c2.Size(), c.Size())
	}
	for i, key := range keys {
		got, ok, err := c2.Get(key)
		if err != nil || !ok || string(got) != fmt.Sprintf("still-here-%d", i) {
			t.Fatalf("rebuilt Get = %q, %v, %v", got, ok, err)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Each payload is 10 bytes; cap at 25 keeps two entries.
	c := open(t, dir, Options{MaxBytes: 25})
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = mustKey(t, "entry", i)
		if err := c.Put(keys[i], []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 0 is the least recently used and must be gone.
	if _, ok, _ := c.Get(keys[0]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range keys[1:] {
		if _, ok, _ := c.Get(k); !ok {
			t.Fatalf("recent entry %s evicted", k[:8])
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	// A Get refreshes LRU position: touch entry 1, put entry 3, entry 2
	// must be the victim.
	if _, ok, _ := c.Get(keys[1]); !ok {
		t.Fatal("entry 1 missing")
	}
	k3 := mustKey(t, "entry", 3)
	if err := c.Put(k3, []byte("payload-03")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(keys[2]); ok {
		t.Fatal("entry 2 should have been evicted after entry 1 was touched")
	}
	if _, ok, _ := c.Get(keys[1]); !ok {
		t.Fatal("touched entry 1 evicted")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := mustKey(t, "conc", g, i)
				payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
				if err := c.Put(key, payload); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, ok, err := c.Get(key)
				if err != nil || !ok || string(got) != string(payload) {
					t.Errorf("Get after Put = %q, %v, %v", got, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGetSharesHeldPayload: while the slice one Get returned is still
// held, a second Get of the same key returns the same backing array
// instead of a private copy, and both count as hits.
func TestGetSharesHeldPayload(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	key := mustKey(t, "shared")
	if err := c.Put(key, []byte("payload-v1")); err != nil {
		t.Fatal(err)
	}
	first, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("first Get: ok=%v err=%v", ok, err)
	}
	second, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("second Get: ok=%v err=%v", ok, err)
	}
	if &first[0] != &second[0] || string(second) != "payload-v1" {
		t.Fatalf("second Get returned a private copy %q", second)
	}
	if st := c.Stats(); st.Hits != 2 {
		t.Fatalf("Hits = %d, want 2", st.Hits)
	}
	runtime.KeepAlive(first)
}

// TestPutReplacesSharedPayload: a Put of new bytes ends sharing, so the
// next Get returns the new payload even while a slice of the old one is
// still held, and the held slice is left as it was.
func TestPutReplacesSharedPayload(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	key := mustKey(t, "replaced")
	if err := c.Put(key, []byte("payload-v1")); err != nil {
		t.Fatal(err)
	}
	old, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if err := c.Put(key, []byte("payload-v2")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok || string(got) != "payload-v2" {
		t.Fatalf("Get after Put = %q, %v, %v; want payload-v2", got, ok, err)
	}
	if string(old) != "payload-v1" {
		t.Fatalf("held slice changed to %q", old)
	}
}

// TestHeldPayloadServedUntilCollected: a hit returns the payload held
// in memory, which was verified when it entered, without reading the
// object. An object corrupted meanwhile counts as Corrupt, and misses,
// at the first read after the payload is collected.
func TestHeldPayloadServedUntilCollected(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	key := mustKey(t, "held")
	want := strings.Repeat("payload-v1;", 8) // too long for the tiny allocator
	if err := c.Put(key, []byte(want)); err != nil {
		t.Fatal(err)
	}
	held, ok, err := c.Get(key)
	if err != nil || !ok || string(held) != want {
		t.Fatalf("Get = %q, %v, %v", held, ok, err)
	}
	if err := os.WriteFile(objectFile(t, c, key), []byte(strings.Repeat("tampered!!;", 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok || &got[0] != &held[0] {
		t.Fatalf("Get while the payload is held = %q, %v, %v; want the held bytes", got, ok, err)
	}
	runtime.KeepAlive(held)
	held, got = nil, nil
	runtime.GC()
	if got, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("Get after the payload was collected = %q, %v, %v; want a miss", got, ok, err)
	}
	if st := c.Stats(); st.Corrupt != 1 || st.Hits != 2 {
		t.Fatalf("stats %+v, want 2 hits and Corrupt 1", st)
	}
}

// TestConcurrentSharedGets reads one key from many goroutines at once,
// each holding its slice while the others read; run it under -race.
func TestConcurrentSharedGets(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	key := mustKey(t, "concurrent-shared")
	want := strings.Repeat("result-bytes;", 64)
	if err := c.Put(key, []byte(want)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte
			for i := 0; i < 20; i++ {
				b, ok, err := c.Get(key)
				if err != nil || !ok || string(b) != want {
					t.Errorf("Get = %d bytes, %v, %v", len(b), ok, err)
					return
				}
				held = append(held, b)
			}
			for _, b := range held {
				if string(b) != want {
					t.Error("held payload changed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestGetJSONPutJSON(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	type rec struct {
		Name   string
		Cycles uint64
	}
	key := mustKey(t, "json")
	want := rec{Name: "MVT", Cycles: 42}
	if _, err := c.PutJSON(key, want); err != nil {
		t.Fatal(err)
	}
	b, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	var got rec
	if err := json.Unmarshal(b, &got); err != nil || got != want {
		t.Fatalf("PutJSON payload decodes to %+v, %v; want %+v", got, err, want)
	}
}

// TestKillMidWrite SIGKILLs a child process in the middle of writing a
// large cache entry and verifies the store is uncorrupted: the key is a
// clean miss (no partial object is ever visible) and previously stored
// entries still verify. This is the crash-safety contract atomic
// temp-file-plus-rename writes exist to provide. The killed put's
// temporary file, once older than staleTempAge, is removed by the next
// Open, while a fresh one, which may be another process's live put,
// stays.
func TestKillMidWrite(t *testing.T) {
	if os.Getenv("SIMCACHE_CRASH_HELPER") == "1" {
		crashHelperMain()
		return
	}
	dir := t.TempDir()
	// Seed one good entry the crash must not damage.
	c := open(t, dir, Options{})
	goodKey := mustKey(t, "survivor")
	if err := c.Put(goodKey, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	cmd := exec.Command(exe, "-test.run", "TestKillMidWrite")
	cmd.Env = append(os.Environ(), "SIMCACHE_CRASH_HELPER=1", "SIMCACHE_CRASH_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}
	// Wait for the helper's in-flight temp file to appear, then kill it
	// mid-write.
	objects := filepath.Join(dir, "objects")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("helper never started writing")
		}
		if len(tempFiles(objects)) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()

	// Age the killed put's temporary file past staleTempAge, and plant a
	// fresh one beside it.
	leftovers := tempFiles(objects)
	if len(leftovers) != 1 {
		t.Fatalf("killed put left temporary files %v, want one", leftovers)
	}
	stale := leftovers[0]
	old := time.Now().Add(-staleTempAge - time.Minute)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := stale + "0"
	if err := os.WriteFile(fresh, []byte("in flight"), 0o600); err != nil {
		t.Fatal(err)
	}

	// Reopen: atomicity means all-or-nothing. The victim key is either
	// a clean miss or a complete, digest-verified 64 MB payload — a
	// partial object must never be served.
	c2 := open(t, dir, Options{})
	victimKey := mustKey(t, "victim")
	if payload, ok, err := c2.Get(victimKey); err != nil {
		t.Fatalf("Get after kill: %v", err)
	} else if ok && len(payload) != 64<<20 {
		t.Fatalf("partial object served: %d bytes", len(payload))
	}
	got, ok, err := c2.Get(goodKey)
	if err != nil || !ok || string(got) != "intact" {
		t.Fatalf("survivor entry damaged: %q, %v, %v", got, ok, err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stale temporary file survived Open: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temporary file removed by Open: %v", err)
	}
	var onDisk int64
	filepath.WalkDir(objects, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !isTempName(d.Name()) {
			if fi, err := d.Info(); err == nil {
				onDisk += fi.Size()
			}
		}
		return nil
	})
	if c2.Size() != onDisk {
		t.Errorf("Size() = %d, want the %d bytes of the objects on disk", c2.Size(), onDisk)
	}
}

// crashHelperMain runs in the child: it writes an entry slowly enough
// that the parent can kill it mid-stream. The payload is large and the
// writes unbuffered so the temp file exists for a long window.
func crashHelperMain() {
	dir := os.Getenv("SIMCACHE_CRASH_DIR")
	c, err := Open(dir, Options{})
	if err != nil {
		os.Exit(1)
	}
	key, err := Key("victim")
	if err != nil {
		os.Exit(1)
	}
	chunk := strings.Repeat("x", 1<<16)
	var b strings.Builder
	for i := 0; i < 1024; i++ {
		b.WriteString(chunk) // 64 MB total: plenty of time to be killed
	}
	c.Put(key, []byte(b.String()))
	os.Exit(0)
}

// tempFiles lists the temporary files of puts under root.
func tempFiles(root string) []string {
	var found []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && isTempName(d.Name()) {
			found = append(found, path)
		}
		return nil
	})
	return found
}

// TestRebuildRecencyFromMtimes is the regression test for the
// rebuild-eviction bug: rebuilding the index used to reset LRU recency
// to key-sorted order, so the entry whose key happened to sort first was
// evicted first regardless of how recently it was used. The order Open
// rebuilds must come from object mtimes instead: the entry touched
// longest ago is the eviction victim.
func TestRebuildRecencyFromMtimes(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	// Keys chosen so the buggy key-sorted recovery would evict the HOT
	// entry ("aa…" sorts before "zz…" and got the oldest seq).
	hot, cold := "aahot-entry", "zzcold-entry"
	if err := c.Put(cold, []byte("cold-data!")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(hot, []byte("hot-data!!")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Stamp mtimes explicitly: filesystems may round timestamps, and the
	// test must not depend on Put wall-clock spacing.
	base := time.Now().Add(-time.Hour)
	if err := os.Chtimes(objectFile(t, c, cold), base, base); err != nil {
		t.Fatal(err)
	}
	later := base.Add(10 * time.Minute)
	if err := os.Chtimes(objectFile(t, c, hot), later, later); err != nil {
		t.Fatal(err)
	}
	// Reopen with a cap that forces one eviction on the next Put.
	c2 := open(t, dir, Options{MaxBytes: 25})
	if c2.Len() != 2 {
		t.Fatalf("rebuilt cache has %d entries, want 2", c2.Len())
	}
	if err := c2.Put("newcomer-xy", []byte("new-data!!")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get(cold); ok {
		t.Fatal("cold entry survived eviction after rebuild")
	}
	if _, ok, _ := c2.Get(hot); !ok {
		t.Fatal("hot (recently used) entry was evicted after rebuild: recency not recovered from mtimes")
	}
}
