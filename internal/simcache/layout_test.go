package simcache

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// files maps every regular file under dir, by path relative to dir, to
// its mtime.
func files(t *testing.T, dir string) map[string]time.Time {
	t.Helper()
	out := make(map[string]time.Time)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = fi.ModTime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// objectRel is the path, relative to the cache root, of the object that
// holds payload under key.
func objectRel(key string, payload []byte) string {
	return filepath.Join(objectsDir, key[:2], key+"."+PayloadDigest(payload)+".json")
}

// TestPutWritesOneFile: a put creates exactly its own object and touches
// no other file. No index file appears, and every other object keeps
// its mtime. A put that replaces a key's payload also removes the old
// object, and nothing else.
func TestPutWritesOneFile(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := c.Put(mustKey(t, "one-file", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Age every object, so that a put that touched one would show.
	aged := time.Now().Add(-time.Hour).Truncate(time.Second)
	for rel := range files(t, dir) {
		if err := os.Chtimes(filepath.Join(dir, rel), aged, aged); err != nil {
			t.Fatal(err)
		}
	}
	check := func(key string, payload []byte, gone string) {
		t.Helper()
		before := files(t, dir)
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		after := files(t, dir)
		want := objectRel(key, payload)
		if _, ok := after[want]; !ok {
			t.Fatalf("object %s not written; files: %v", want, after)
		}
		for rel, mtime := range before {
			if rel == gone {
				if _, ok := after[rel]; ok {
					t.Fatalf("replaced object %s not removed", rel)
				}
				continue
			}
			if got, ok := after[rel]; !ok || !got.Equal(mtime) {
				t.Fatalf("put touched %s: present=%v, mtime %v -> %v", rel, ok, mtime, got)
			}
		}
		for rel := range after {
			if _, ok := before[rel]; !ok && rel != want {
				t.Fatalf("put created %s besides its object", rel)
			}
		}
	}
	check(mustKey(t, "one-file", 3), []byte("payload-3"), "")
	replaced := mustKey(t, "one-file", 0)
	check(replaced, []byte("payload-0-v2"), objectRel(replaced, []byte("payload-0")))
	if c.Len() != 4 || c.Size() != int64(4*len("payload-0")+len("-v2")) {
		t.Fatalf("cache holds %d entries, %d bytes", c.Len(), c.Size())
	}
}

// TestPutRejectsBadKeys: a key must name exactly one object file.
func TestPutRejectsBadKeys(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	for _, key := range []string{"", "a", "ab/cd", "ab.cd", "../x", ".."} {
		if err := c.Put(key, []byte("payload")); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
	}
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("rejected puts left files: %v", got)
	}
}

// crashKey and crashPayload name the entries the put helper writes.
func crashKey(i int) string { return fmt.Sprintf("crash-%04d", i) }
func crashPayload(i int) []byte {
	return []byte(strings.Repeat(fmt.Sprintf("result %d;", i), 50+i%7))
}

// TestKillAfterPuts SIGKILLs a child process that keeps putting entries,
// and reopens the cache without any Close. Every put the child saw
// return is present, digest-checked and counted in Size, and so is
// every object on disk, so nothing escapes MaxBytes. An object tampered
// with after the reopen is a miss and is removed.
func TestKillAfterPuts(t *testing.T) {
	if os.Getenv("SIMCACHE_PUT_HELPER") == "1" {
		putHelperMain()
		return
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestKillAfterPuts$")
	cmd.Env = append(os.Environ(), "SIMCACHE_PUT_HELPER=1", "SIMCACHE_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}
	// Each line the helper prints acknowledges one returned Put. Kill it
	// after 40, most likely in the middle of the next one.
	acked := 0
	for sc := bufio.NewScanner(out); acked < 40 && sc.Scan(); {
		if sc.Text() == fmt.Sprint(acked) {
			acked++
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	if acked < 40 {
		t.Fatalf("helper acknowledged %d puts before it ended, want 40", acked)
	}

	c := open(t, dir, Options{})
	for i := 0; i < acked; i++ {
		got, ok, err := c.Get(crashKey(i))
		if err != nil || !ok || string(got) != string(crashPayload(i)) {
			t.Fatalf("acknowledged put %d after the kill: %.40q, %v, %v", i, got, ok, err)
		}
	}
	var onDisk int64
	objects := 0
	for rel := range files(t, dir) {
		if strings.HasSuffix(rel, ".json") {
			fi, err := os.Stat(filepath.Join(dir, rel))
			if err != nil {
				t.Fatal(err)
			}
			onDisk += fi.Size()
			objects++
		}
	}
	if c.Size() != onDisk || c.Len() != objects {
		t.Fatalf("cache counts %d entries, %d bytes; disk holds %d objects, %d bytes",
			c.Len(), c.Size(), objects, onDisk)
	}

	// Tamper with an object whose payload the reads above returned,
	// once it is collected: a held payload is served without a read.
	runtime.GC()
	path := objectFile(t, c, crashKey(0))
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(crashKey(0)); ok || err != nil {
		t.Fatalf("tampered object served: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("tampered object not removed: %v", err)
	}
	if st := c.Stats(); st.Corrupt != 1 || c.Size() != onDisk-int64(len(crashPayload(0))) {
		t.Fatalf("after the tampered read: %+v, %d bytes", st, c.Size())
	}
}

// putHelperMain runs in the child: it puts entries one after another
// and prints the index of each that returned, until it is killed.
func putHelperMain() {
	c, err := Open(os.Getenv("SIMCACHE_CRASH_DIR"), Options{})
	if err != nil {
		os.Exit(1)
	}
	for i := 0; i < 10000; i++ {
		if c.Put(crashKey(i), crashPayload(i)) != nil {
			os.Exit(1)
		}
		fmt.Println(i)
	}
	os.Exit(0)
}

// TestRecencyAcrossClose: Close keeps the in-memory LRU order for the
// next Open, so a put that follows a hit stays the more recent, and a
// capped cache then evicts in exactly that order.
func TestRecencyAcrossClose(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	k := func(i int) string { return mustKey(t, "recency", i) }
	put := func(c *Cache, i int) {
		t.Helper()
		if err := c.Put(k(i), []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	put(c, 0)
	put(c, 1)
	put(c, 2)
	if _, ok, _ := c.Get(k(0)); !ok {
		t.Fatal("entry 0 missing")
	}
	put(c, 3)
	want := []string{k(1), k(2), k(0), k(3)}
	if got := lruKeys(c); !slices.Equal(got, want) {
		t.Fatalf("in-memory LRU order %v, want %v", got, want)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Four 10-byte payloads fit under the cap; each further put evicts
	// one entry, the least recently used.
	c2 := open(t, dir, Options{MaxBytes: 45})
	if got := lruKeys(c2); !slices.Equal(got, want) {
		t.Fatalf("LRU order after reopen %v, want %v", got, want)
	}
	for i := 4; i < 8; i++ {
		put(c2, i)
		want = append(want[1:], k(i))
		if got := lruKeys(c2); !slices.Equal(got, want) {
			t.Fatalf("after put %d: LRU order %v, want %v", i, got, want)
		}
		if st := c2.Stats(); st.Evictions != uint64(i-3) {
			t.Fatalf("after put %d: %d evictions, want %d", i, st.Evictions, i-3)
		}
	}
}

// TestOpenAdoptsLegacyLayout opens a directory in the layout that kept
// an index.json beside objects named <key>.json. Every object is
// counted and served digest-checked under its new, digest-carrying
// name, recency comes from the mtimes, and the index file is removed.
func TestOpenAdoptsLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	keys := []string{mustKey(t, "legacy", 0), mustKey(t, "legacy", 1), mustKey(t, "legacy", 2)}
	payload := func(i int) []byte { return []byte(fmt.Sprintf(`{"cycles":%d}`, 1000+i)) }
	base := time.Now().Add(-time.Hour)
	var size int64
	for i, key := range keys {
		path := filepath.Join(dir, objectsDir, key[:2], key+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, payload(i), 0o644); err != nil {
			t.Fatal(err)
		}
		// The newest object's key is written first: order must come
		// from mtimes.
		mtime := base.Add(time.Duration(len(keys)-i) * time.Minute)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		size += int64(len(payload(i)))
	}
	index := `{"version":1,"seq":3,"entries":[]}`
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}

	c := open(t, dir, Options{})
	if c.Len() != 3 || c.Size() != size {
		t.Fatalf("adopted %d entries, %d bytes; want 3, %d", c.Len(), c.Size(), size)
	}
	want := []string{keys[2], keys[1], keys[0]}
	if got := lruKeys(c); !slices.Equal(got, want) {
		t.Fatalf("LRU order %v, want %v", got, want)
	}
	got := files(t, dir)
	if len(got) != 3 {
		t.Fatalf("files after adoption: %v", got)
	}
	for i, key := range keys {
		if _, ok := got[objectRel(key, payload(i))]; !ok {
			t.Fatalf("object %d not renamed to carry its digest: %v", i, got)
		}
		b, ok, err := c.Get(key)
		if err != nil || !ok || string(b) != string(payload(i)) {
			t.Fatalf("adopted Get %d = %q, %v, %v", i, b, ok, err)
		}
	}
	// Once the payloads the reads returned are collected, the next read
	// checks the object again.
	runtime.GC()
	if err := os.WriteFile(objectFile(t, c, keys[1]), []byte(`{"cycles":9999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(keys[1]); ok {
		t.Fatal("tampered adopted object served")
	}
}

// TestOpenKeepsNewerDuplicate: a crash between a replacing put's rename
// and its removal of the old object leaves two objects for one key.
// Open keeps the newer, removes the older and counts one entry.
func TestOpenKeepsNewerDuplicate(t *testing.T) {
	dir := t.TempDir()
	key := mustKey(t, "duplicate")
	v1, v2 := []byte("payload-v1"), []byte("payload-v2-longer")
	base := time.Now().Add(-time.Hour)
	for i, p := range [][]byte{v2, v1} { // the newer one is written first
		path := filepath.Join(dir, objectRel(key, p))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, p, 0o644); err != nil {
			t.Fatal(err)
		}
		mtime := base.Add(time.Duration(-i) * time.Minute)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	c := open(t, dir, Options{})
	if c.Len() != 1 || c.Size() != int64(len(v2)) {
		t.Fatalf("cache holds %d entries, %d bytes; want 1, %d", c.Len(), c.Size(), len(v2))
	}
	if b, ok, err := c.Get(key); err != nil || !ok || string(b) != string(v2) {
		t.Fatalf("Get = %q, %v, %v; want the newer payload", b, ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, objectRel(key, v1))); !os.IsNotExist(err) {
		t.Fatalf("older duplicate not removed: %v", err)
	}
}

// preload writes n objects straight into a cache directory, as an
// earlier process's puts would have left them.
func preload(b *testing.B, dir string, n int, payload []byte) {
	b.Helper()
	for i := 0; i < n; i++ {
		key, err := Key("preload", i)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, objectRel(key, payload))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPayload is as large as a tiny MVT result, 2,800 bytes.
var benchPayload = []byte(strings.Repeat(`{"cycles":12345678},`, 140))

// BenchmarkPut times one put of a new result into a cache that already
// holds 10 or 5,000 entries. The two must cost about the same.
func BenchmarkPut(b *testing.B) {
	for _, n := range []int{10, 5000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			preload(b, dir, n, benchPayload)
			c, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, err := Key("put", i)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Put(key, benchPayload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen times opening a cache of 3,000 entries.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	preload(b, dir, 3000, benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if c.Len() != 3000 {
			b.Fatalf("Open indexed %d entries, want 3000", c.Len())
		}
	}
}
