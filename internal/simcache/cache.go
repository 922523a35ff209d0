package simcache

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"
	"weak"

	"gpuwalk/internal/atomicio"
	"gpuwalk/internal/obs"
)

// Options tunes a Cache.
type Options struct {
	// MaxBytes caps the total payload bytes kept on disk; least
	// recently used entries are evicted when a Put exceeds it.
	// 0 means unlimited.
	MaxBytes int64
}

// Stats counts cache activity since Open.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Evictions uint64
	// Corrupt counts entries dropped because their payload failed the
	// integrity check (a miss is also recorded).
	Corrupt uint64
	// PeerHits counts local misses answered by the configured Peer (the
	// local Miss is still recorded: a peer hit is a local miss that was
	// cheap). The adopted payload is also a Put.
	PeerHits uint64
}

// Peer answers cache misses from somewhere else — in a gpuwalkd
// cluster, the node that owns the key on the consistent-hash ring.
// Fetch returns ok=false for any reason the payload is unavailable
// (miss, unreachable, this process owns the key); the cache then
// reports an ordinary miss and the caller pays for the computation.
// Implementations must not call back into Get on the same cache, or a
// miss could recurse; cluster.Peering guarantees this by serving its
// remote end from GetLocal.
type Peer interface {
	Fetch(key string) ([]byte, bool)
}

// Cache is a persistent content-addressed result store rooted at one
// directory. Each entry is one object file,
// objects/<hh>/<key>.<sha256>.json, whose name carries the SHA-256 of
// its payload: a Put is one atomic write that makes payload and digest
// durable together, and no index file exists to fall behind. Open
// rebuilds the in-memory index from the names; recency is kept in the
// objects' mtimes, which Close stamps in LRU order.
//
// A hit never returns bytes that failed the digest check when they
// entered memory: a Put's payload, or an object read and checked
// against its name. While some caller still holds the payload a key
// last returned or stored, hits on the key return it without reading
// the object. An object corrupted on disk meanwhile counts as Corrupt,
// and is dropped, at its first read after that payload is collected.
//
// A Cache is safe for concurrent use by multiple goroutines of one
// process. Processes sharing a directory never observe a partial
// object, since writes are atomic renames, but each indexes only the
// objects present at its Open plus its own puts: an object another
// process evicted or replaced is a miss once its payload is collected.
type Cache struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*entry
	// lru is the sentinel of the LRU list: lru.next is the least
	// recently used entry, lru.prev the most recently used one.
	lru   entry
	size  int64 // total payload bytes
	stats Stats
	peer  Peer
}

// entry is one stored object, linked into its cache's LRU list.
type entry struct {
	key    string
	digest string // hex SHA-256 of the payload, as in the object's name
	size   int64

	prev, next *entry

	// held is a weak pointer to the first byte of the entry's payload as
	// it last entered memory, stored by Put or read and verified, and
	// heldLen its length. While some caller still holds that slice, hits
	// return it; once none does, the GC frees it and the next hit reads
	// the object again. Put installs a fresh entry and dropLocked
	// discards this one, so a slice is never served across a change of
	// the stored payload.
	held    weak.Pointer[byte]
	heldLen int
}

// payload returns e's held payload, or nil once it has been collected.
// The caller holds c.mu.
func (e *entry) payload() []byte {
	if p := e.held.Value(); p != nil {
		return unsafe.Slice(p, e.heldLen)
	}
	return nil
}

// hold records b, whose digest is e's, as the payload hits return while
// some caller holds it. The caller holds c.mu.
func (e *entry) hold(b []byte) {
	if len(b) > 0 {
		e.held, e.heldLen = weak.Make(&b[0]), len(b)
	}
}

const objectsDir = "objects"

// staleTempAge is how long before an Open a put's temporary file must
// have been last written for that Open to remove it as left by a
// killed put. A younger one may be another process's put in progress.
const staleTempAge = time.Hour

// Open opens (creating if needed) a cache rooted at dir. It indexes the
// store with one walk over the object files and reads no payload: each
// name gives an entry's key and digest, its metadata the size and, by
// mtime, the LRU order (ties broken by key). An object in the layout
// before digests moved into names, objects/<hh>/<key>.json, is hashed
// and renamed once, and the index.json of that layout is removed. If a
// crash left two objects for one key, the newer is kept. A put's
// temporary file last written more than staleTempAge ago is removed.
func Open(dir string, opts Options) (*Cache, error) {
	staleBefore := time.Now().Add(-staleTempAge)
	root := filepath.Join(dir, objectsDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	c := &Cache{dir: dir, opts: opts, entries: make(map[string]*entry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	type object struct {
		e     *entry
		mtime int64
	}
	found := make(map[string]object)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		key, digest, ok := parseObjectName(d.Name())
		if !ok || path != filepath.Join(root, key[:2], d.Name()) {
			if isTempName(d.Name()) {
				if fi, err := d.Info(); err == nil && fi.ModTime().Before(staleBefore) {
					os.Remove(path)
				}
			}
			return nil // a temporary file, or not an object
		}
		fi, err := d.Info()
		if err == nil && digest == "" {
			// An object of the old layout: hash it and rename it once.
			var b []byte
			if b, err = os.ReadFile(path); err == nil {
				digest = PayloadDigest(b)
				err = os.Rename(path, c.objectPath(key, digest))
			}
		}
		if err != nil {
			return nil // vanished mid-walk
		}
		o := object{&entry{key: key, digest: digest, size: fi.Size()}, fi.ModTime().UnixNano()}
		if old, dup := found[key]; dup {
			// A crash came between a replacing Put's rename and its
			// removal of the old object.
			if o.mtime < old.mtime || o.mtime == old.mtime && o.e.digest < old.e.digest {
				o, old = old, o
			}
			if old.e.digest != o.e.digest {
				os.Remove(c.objectPath(key, old.e.digest))
			}
		}
		found[key] = o
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("simcache: indexing objects: %w", err)
	}
	os.Remove(filepath.Join(dir, "index.json"))
	objs := make([]object, 0, len(found))
	for _, o := range found {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].mtime != objs[j].mtime {
			return objs[i].mtime < objs[j].mtime
		}
		return objs[i].e.key < objs[j].e.key
	})
	for _, o := range objs {
		c.entries[o.e.key] = o.e
		c.size += o.e.size
		c.pushBack(o.e)
	}
	return c, nil
}

// objectPath names the object holding key's payload with the given
// digest. Objects are sharded by the key's first byte so no directory
// collects millions of files.
func (c *Cache) objectPath(key, digest string) string {
	return filepath.Join(c.dir, objectsDir, key[:2], key+"."+digest+".json")
}

// validKey reports whether key can name an object: two bytes or more
// for its shard directory, and no '/' or '.', which would split the
// name.
func validKey(key string) bool {
	return len(key) >= 2 && !strings.ContainsAny(key, "/.")
}

// parseObjectName splits an object's file name, <key>.<digest>.json,
// into its key and digest. An object in the old layout, <key>.json,
// has an empty digest.
func parseObjectName(name string) (key, digest string, ok bool) {
	stem, ok := strings.CutSuffix(name, ".json")
	key, digest, named := strings.Cut(stem, ".")
	return key, digest, ok && validKey(key) && (!named || len(digest) == 2*sha256.Size)
}

// isTempName reports whether name is that of a put's temporary file,
// an object's name followed by ".tmp" and atomicio's random suffix.
func isTempName(name string) bool {
	stem, _, ok := strings.Cut(name, ".json.tmp")
	if ok {
		_, _, ok = parseObjectName(stem + ".json")
	}
	return ok
}

// pushBack makes e, which is on no list, the most recently used entry.
func (c *Cache) pushBack(e *entry) {
	e.prev, e.next = c.lru.prev, &c.lru
	e.prev.next, c.lru.prev = e, e
}

// unlink takes e off its LRU list.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// SetPeer installs (or, with nil, removes) a read-through peer
// consulted on local misses. Call before the cache starts serving;
// swapping peers mid-flight is not synchronized with in-progress Gets.
func (c *Cache) SetPeer(p Peer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peer = p
}

// Get returns the payload stored under key. ok is false on a miss; a
// payload that no longer matches the digest in its name is dropped and
// reported as a miss, never returned. With a Peer configured, a local
// miss read-throughs the peer — outside the cache lock, so a slow
// network fetch never blocks concurrent local hits — and an adopted
// payload is stored locally (a Put) so the next Get hits without a
// network hop. The payload may be shared with other callers (see
// GetLocal) and must not be modified.
func (c *Cache) Get(key string) (payload []byte, ok bool, err error) {
	return c.GetContext(context.Background(), key)
}

// GetContext is Get with a context carrying an optional request-trace
// span (obs.SpanRefFrom): when present, the peer read-through fetch is
// recorded as a cache.peer_fetch span, so slow network fetches show up
// on a job's timeline. The context does not (yet) cancel the fetch —
// Peer.Fetch has no context parameter — it only scopes the tracing.
func (c *Cache) GetContext(ctx context.Context, key string) (payload []byte, ok bool, err error) {
	b, ok, err := c.GetLocal(key)
	if ok || err != nil {
		return b, ok, err
	}
	c.mu.Lock()
	peer := c.peer
	c.mu.Unlock()
	if peer == nil {
		return nil, false, nil
	}
	fetchSpan := obs.SpanRefFrom(ctx).Start("cache.peer_fetch")
	pb, ok := peer.Fetch(key)
	fetchSpan.End(obs.U64("hit", boolU64(ok)), obs.U64("bytes", uint64(len(pb))))
	if !ok {
		return nil, false, nil
	}
	// The payload is good even if persisting it fails; serve it and let
	// the next miss retry the store.
	_ = c.Put(key, pb)
	c.mu.Lock()
	c.stats.PeerHits++
	c.mu.Unlock()
	return pb, true, nil
}

// GetLocal is Get without the peer read-through: it consults only this
// process's store. The cluster cache-serving endpoint uses it so a
// peer fetch can never recurse into another peer fetch.
//
// A hit returns the payload the key last stored or returned while some
// caller still holds it, and otherwise reads the object and checks its
// digest (see Cache). Callers share the payload, so they must treat it
// as read-only.
func (c *Cache) GetLocal(key string) (payload []byte, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.readLocked(key)
	if !ok {
		c.stats.Misses++
	}
	return b, ok, nil
}

// Probe is GetLocal for a caller that looks key up again on a miss: a
// hit counts as GetLocal's does, but a miss is left for that later
// lookup to count, so one missed key counts one miss. gpuwalkd's
// admission probe uses it ahead of the job's own lookup.
func (c *Cache) Probe(key string) (payload []byte, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.readLocked(key)
	return b, ok, nil
}

// readLocked returns key's held payload, or reads its object and checks
// its size and digest; on a hit it makes the entry the most recently
// used and counts the hit. The caller holds c.mu, and counts a miss if
// it counts one.
func (c *Cache) readLocked(key string) ([]byte, bool) {
	e, found := c.entries[key]
	if !found {
		return nil, false
	}
	b := e.payload()
	if b == nil {
		var err error
		if b, err = readObject(c.objectPath(e.key, e.digest), e.size); err != nil {
			// Object vanished out from under the index (partial cleanup,
			// concurrent eviction by another process): treat as a miss.
			c.dropLocked(e)
			return nil, false
		}
		if int64(len(b)) != e.size || PayloadDigest(b) != e.digest {
			c.dropLocked(e)
			c.stats.Corrupt++
			return nil, false
		}
		e.hold(b)
	}
	e.unlink()
	c.pushBack(e)
	c.stats.Hits++
	return b, true
}

// readObject reads the object at path, which the index says holds size
// bytes. It asks for size+1 bytes in one read, so a whole object takes
// one read call, and one that has grown reads long; a short object
// reads short.
func readObject(path string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, size+1)
	n, err := io.ReadAtLeast(f, b, int(max(size, 1)))
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return b[:n], err
}

// Put stores payload under key with one atomic write of its object,
// fsynced with its directory before Put returns, and evicts least
// recently used entries if the store exceeds its byte cap. Re-putting
// an existing key refreshes its payload and LRU position. A key is at
// least two bytes long and contains no '/' or '.'. Hits return payload
// itself while some caller holds it, so the caller must not modify it
// once Put returns.
func (c *Cache) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("simcache: invalid key %q", key)
	}
	e := &entry{key: key, digest: PayloadDigest(payload), size: int64(len(payload))}
	path := c.objectPath(key, e.digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		return fmt.Errorf("simcache: writing object: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		if old.digest == e.digest {
			c.forgetLocked(old) // its object is the one just written
		} else {
			c.dropLocked(old)
		}
	}
	e.hold(payload)
	c.entries[key] = e
	c.size += e.size
	c.pushBack(e)
	c.stats.Puts++
	c.evictLocked(e)
	return nil
}

// evictLocked removes least recently used entries until the store fits
// its cap. keep, the entry just put and so the most recently used, is
// never evicted.
func (c *Cache) evictLocked(keep *entry) {
	for c.opts.MaxBytes > 0 && c.size > c.opts.MaxBytes && c.lru.next != keep {
		c.dropLocked(c.lru.next)
		c.stats.Evictions++
	}
}

// dropLocked removes an entry and its object file; the caller holds c.mu.
func (c *Cache) dropLocked(e *entry) {
	os.Remove(c.objectPath(e.key, e.digest))
	c.forgetLocked(e)
}

// forgetLocked removes an entry from the index, leaving its object file;
// the caller holds c.mu.
func (c *Cache) forgetLocked(e *entry) {
	delete(c.entries, e.key)
	c.size -= e.size
	e.unlink()
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Size returns the total payload bytes stored.
func (c *Cache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close stamps the LRU order into the objects' mtimes, so that the next
// Open restores it: the most recently used entry gets the current time,
// each older one a microsecond less, which file systems with
// nanosecond timestamps (ext4, XFS, btrfs, tmpfs) keep exactly. Puts
// are durable without Close: a crash loses only the recency that hits
// set since the last Close, never an entry. The cache stays usable.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := time.Now()
	var err error
	for e := c.lru.prev; e != &c.lru; e = e.prev {
		serr := os.Chtimes(c.objectPath(e.key, e.digest), t, t)
		if serr != nil && err == nil && !errors.Is(serr, fs.ErrNotExist) {
			err = fmt.Errorf("simcache: stamping recency: %w", serr)
		}
		t = t.Add(-time.Microsecond)
	}
	return err
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PutJSON stores v's JSON encoding under key and returns the bytes
// written (callers use them for byte-identity checks).
func (c *Cache) PutJSON(key string, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("simcache: encoding entry: %w", err)
	}
	return b, c.Put(key, b)
}
