package simcache

import (
	"bytes"
	"context"
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
// directory. It is safe for concurrent use by multiple goroutines of
// one process; cross-process safety relies on atomic writes (readers
// never observe a partial object, but two writers may race on the
// index — last rename wins, and either outcome is a consistent index).
type Cache struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*entry
	seq     uint64 // LRU clock: bumped on every hit and put
	size    int64  // total payload bytes
	dirty   bool   // index has in-memory changes not yet persisted
	stats   Stats
	peer    Peer
}

// entry is one index record.
type entry struct {
	Key    string `json:"key"`
	Size   int64  `json:"size"`
	Seq    uint64 `json:"seq"`
	Digest string `json:"sha256"`

	// shared is a weak pointer to the first byte of the payload slice the
	// last verified read of this entry returned, sharedLen its length.
	// While some caller still holds that slice, later reads return it
	// instead of their own copy; once none does, the GC frees it. Put
	// installs a fresh entry and dropLocked discards this one, so a slice
	// is never shared across a change of the stored payload.
	shared    weak.Pointer[byte]
	sharedLen int
}

// share returns the slice an earlier verified read of e handed out if a
// caller still holds it and its bytes equal b, the payload just read and
// verified; otherwise it records b as the slice to share from now on.
// The caller holds c.mu.
func (e *entry) share(b []byte) []byte {
	if p := e.shared.Value(); p != nil {
		if s := unsafe.Slice(p, e.sharedLen); bytes.Equal(s, b) {
			return s
		}
	}
	if len(b) > 0 {
		e.shared, e.sharedLen = weak.Make(&b[0]), len(b)
	}
	return b
}

// index is the on-disk index file layout.
type index struct {
	Version int      `json:"version"`
	Seq     uint64   `json:"seq"`
	Entries []*entry `json:"entries"`
}

const (
	indexFile    = "index.json"
	objectsDir   = "objects"
	indexVersion = 1
)

// Open opens (creating if needed) a cache rooted at dir. A missing or
// unreadable index is rebuilt by scanning the object files, so a crash
// between an object write and an index write loses nothing.
func Open(dir string, opts Options) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	c := &Cache{dir: dir, opts: opts, entries: make(map[string]*entry)}
	if err := c.loadIndex(); err != nil {
		if err := c.rebuildIndex(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) objectPath(key string) string {
	// Shard by the first byte of the digest so no directory collects
	// millions of files.
	return filepath.Join(c.dir, objectsDir, key[:2], key+".json")
}

func (c *Cache) loadIndex() error {
	b, err := os.ReadFile(filepath.Join(c.dir, indexFile))
	if err != nil {
		return err
	}
	var idx index
	if err := json.Unmarshal(b, &idx); err != nil {
		return err
	}
	if idx.Version != indexVersion {
		return fmt.Errorf("simcache: index version %d (want %d)", idx.Version, indexVersion)
	}
	c.seq = idx.Seq
	for _, e := range idx.Entries {
		c.entries[e.Key] = e
		c.size += e.Size
		if e.Seq > c.seq {
			c.seq = e.Seq
		}
	}
	return nil
}

// rebuildIndex reconstructs the index from the object files themselves.
// Recovered entries get fresh digests (computed from the payloads) and
// an LRU order recovered from the object files' modification times,
// oldest first (ties broken by key for determinism). Key-sorted order
// here would be an eviction bug: after an index loss, a hot entry whose
// key happens to sort first would be evicted before cold ones.
func (c *Cache) rebuildIndex() error {
	c.entries = make(map[string]*entry)
	c.seq, c.size = 0, 0
	root := filepath.Join(c.dir, objectsDir)
	type found struct {
		key   string
		mtime int64
	}
	var objs []found
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return nil // vanished mid-walk: skip
		}
		objs = append(objs, found{
			key:   strings.TrimSuffix(d.Name(), ".json"),
			mtime: fi.ModTime().UnixNano(),
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("simcache: rebuilding index: %w", err)
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].mtime != objs[j].mtime {
			return objs[i].mtime < objs[j].mtime
		}
		return objs[i].key < objs[j].key
	})
	for _, o := range objs {
		b, err := os.ReadFile(c.objectPath(o.key))
		if err != nil {
			continue
		}
		c.seq++
		c.entries[o.key] = &entry{Key: o.key, Size: int64(len(b)), Seq: c.seq, Digest: PayloadDigest(b)}
		c.size += int64(len(b))
	}
	c.dirty = true
	return c.flushIndexLocked()
}

// flushIndexLocked persists the index; the caller holds c.mu.
func (c *Cache) flushIndexLocked() error {
	if !c.dirty {
		return nil
	}
	idx := index{Version: indexVersion, Seq: c.seq}
	idx.Entries = make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		idx.Entries = append(idx.Entries, e)
	}
	sort.Slice(idx.Entries, func(i, j int) bool { return idx.Entries[i].Key < idx.Entries[j].Key })
	err := atomicio.WriteFile(filepath.Join(c.dir, indexFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(idx)
	})
	if err == nil {
		c.dirty = false
	}
	return err
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
// payload whose digest no longer matches the index is dropped and
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
	if err := c.Put(key, pb); err != nil {
		// The payload is good even if persisting it failed; serve it and
		// let the next miss retry the store.
		c.mu.Lock()
		c.stats.PeerHits++
		c.mu.Unlock()
		return pb, true, nil
	}
	c.mu.Lock()
	c.stats.PeerHits++
	c.mu.Unlock()
	return pb, true, nil
}

// GetLocal is Get without the peer read-through: it consults only this
// process's store. The cluster cache-serving endpoint uses it so a
// peer fetch can never recurse into another peer fetch.
//
// Every call reads the object and checks its digest. A hit returns the
// same backing array as an earlier hit on the key while some caller
// still holds that slice, so callers must treat the payload as
// read-only.
func (c *Cache) GetLocal(key string) (payload []byte, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[key]
	if !found {
		c.stats.Misses++
		return nil, false, nil
	}
	b, err := os.ReadFile(c.objectPath(key))
	if err != nil {
		// Object vanished out from under the index (partial cleanup,
		// concurrent eviction by another process): treat as a miss.
		c.dropLocked(e)
		c.stats.Misses++
		return nil, false, nil
	}
	if PayloadDigest(b) != e.Digest {
		c.dropLocked(e)
		c.stats.Corrupt++
		c.stats.Misses++
		return nil, false, nil
	}
	c.seq++
	e.Seq = c.seq
	c.dirty = true
	c.stats.Hits++
	return e.share(b), true, nil
}

// Put stores payload under key, atomically, and evicts least recently
// used entries if the store exceeds its byte cap. Re-putting an
// existing key refreshes its payload and LRU position.
func (c *Cache) Put(key string, payload []byte) error {
	if len(key) < 2 {
		return errors.New("simcache: key too short")
	}
	path := c.objectPath(key)
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
		c.size -= old.Size
	}
	c.seq++
	c.entries[key] = &entry{Key: key, Size: int64(len(payload)), Seq: c.seq, Digest: PayloadDigest(payload)}
	c.size += int64(len(payload))
	c.stats.Puts++
	c.evictLocked(key)
	c.dirty = true
	return c.flushIndexLocked()
}

// evictLocked removes least recently used entries until the store fits
// its cap. keep is never evicted (the entry just put).
func (c *Cache) evictLocked(keep string) {
	if c.opts.MaxBytes <= 0 {
		return
	}
	for c.size > c.opts.MaxBytes && len(c.entries) > 1 {
		var victim *entry
		for _, e := range c.entries {
			if e.Key == keep {
				continue
			}
			if victim == nil || e.Seq < victim.Seq {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		c.dropLocked(victim)
		c.stats.Evictions++
	}
}

// dropLocked removes an entry and its object file; the caller holds c.mu.
func (c *Cache) dropLocked(e *entry) {
	os.Remove(c.objectPath(e.Key))
	delete(c.entries, e.Key)
	c.size -= e.Size
	c.dirty = true
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

// Close flushes any index changes accumulated by Gets (LRU bumps).
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushIndexLocked()
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
