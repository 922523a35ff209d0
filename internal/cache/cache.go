// Package cache models set-associative write-back data caches with
// MSHRs (miss-status holding registers) and a single ported lookup pipe.
//
// A Cache is wired to a lower level through an AccessFn; misses allocate
// an MSHR, fetch the line from below, and release all waiters when the
// fill returns. Same-line misses merge onto one MSHR, mirroring real
// GPU cache behaviour, which matters here because divergent SIMD
// instructions issue many concurrent accesses.
package cache

import (
	"fmt"

	"gpuwalk/internal/sim"
	"gpuwalk/internal/stats"
)

// AccessFn requests the line containing addr from a lower level. done is
// called when the data is available (or the write is accepted). It
// reports false if the lower level cannot accept the request now; the
// caller must retry.
type AccessFn func(addr uint64, write bool, done func()) bool

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  uint64
	LineBytes  uint64
	Ways       int
	HitLatency uint64 // lookup latency in cycles
	PortCycles uint64 // occupancy per access (bandwidth); 0 = unlimited
	MSHRs      int    // max outstanding distinct line misses; 0 = unlimited
	RetryDelay uint64 // backoff before retrying a rejected lower access
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.LineBytes < 4 || c.LineBytes&(c.LineBytes-1) != 0:
		// Four bytes or more leave a tag two spare bits (see lineValid).
		return fmt.Errorf("cache %s: LineBytes must be a power of two of at least 4, got %d", c.Name, c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %s: Ways must be positive, got %d", c.Name, c.Ways)
	case c.SizeBytes == 0 || c.SizeBytes%(c.LineBytes*uint64(c.Ways)) != 0:
		return fmt.Errorf("cache %s: SizeBytes (%d) must be a multiple of LineBytes*Ways", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * uint64(c.Ways))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Lookups    stats.Ratio // hit/total
	Fills      uint64
	Evictions  uint64
	Writebacks uint64
	MSHRMerges uint64
	MSHRStalls uint64 // accesses rejected because MSHRs were full
}

// A tag-store word holds one line: its tag, the line address >>
// lineSh, with the valid and dirty bits above it. Lines of four bytes
// or more keep every tag below bit 62.
const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
)

// mshr is one outstanding line miss. Records are pooled per cache with
// fetch and fill bound once, and keep their waiter slice's capacity, so
// a steady-state miss allocates nothing. fill returns a record to the
// pool once it has run every waiter.
type mshr struct {
	c       *Cache
	la      uint64
	slot    int // index in c.mshrs while outstanding
	write   bool
	waiters []func() // starts in buf
	buf     [2]func()

	fetchFn func() // bound m.fetch
	fillFn  func() // bound m.fill
}

// waiting is an access parked because all MSHRs were busy.
type waiting struct {
	la    uint64
	write bool
	done  func()
}

// Cache is one level of a data cache hierarchy.
type Cache struct {
	cfg   Config
	eng   *sim.Engine
	lower AccessFn
	// lines is the tag store, Ways words per set, set after set; plru
	// holds each set's tree pseudo-LRU bits.
	lines   []uint64
	plru    []uint64
	setMask uint64
	lineSh  uint
	// mshrs holds the outstanding misses, at most cfg.MSHRs of them
	// when that is set; a miss finds its line's record by a scan of
	// this short slice rather than a hash.
	mshrs    []*mshr
	mshrPool []*mshr
	mshrSlab []mshr    // records not yet handed out
	waitq    []waiting // accesses parked on MSHR exhaustion, FIFO
	waitHead int       // next parked access in waitq
	stats    Stats
	portFree sim.Cycle
}

// New builds a cache on the engine, backed by lower. Panics on invalid
// config; use Config.Validate for graceful checking.
func New(eng *sim.Engine, cfg Config, lower AccessFn) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * uint64(cfg.Ways))
	c := &Cache{
		cfg:      cfg,
		eng:      eng,
		lower:    lower,
		lines:    make([]uint64, nsets*uint64(cfg.Ways)),
		plru:     make([]uint64, nsets),
		setMask:  nsets - 1,
		mshrs:    make([]*mshr, 0, cfg.MSHRs),
		mshrPool: make([]*mshr, 0, cfg.MSHRs),
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineSh++
	}
	return c
}

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// lineAddr returns the line-aligned address of addr.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ (c.cfg.LineBytes - 1) }

func (c *Cache) indexTag(la uint64) (uint64, uint64) {
	idx := (la >> c.lineSh) & c.setMask
	tag := la >> c.lineSh
	return idx, tag
}

// ways returns the tag-store words of set idx.
func (c *Cache) ways(idx uint64) []uint64 {
	w := uint64(c.cfg.Ways)
	return c.lines[idx*w : idx*w+w : idx*w+w]
}

// occupyPort serializes accesses through the lookup port and returns the
// cycle at which this access's lookup completes.
func (c *Cache) occupyPort() sim.Cycle {
	now := c.eng.Now()
	start := now
	if c.cfg.PortCycles > 0 {
		if c.portFree > start {
			start = c.portFree
		}
		c.portFree = start + sim.Cycle(c.cfg.PortCycles)
	}
	return start + sim.Cycle(c.cfg.HitLatency)
}

// Access looks up the line containing addr. done runs when the data is
// available (loads) or the write has been absorbed (stores). Access
// always accepts: when all MSHRs are busy the request parks in an
// internal wait queue and proceeds as MSHRs free up (hardware would
// apply backpressure; a queue models the same delay without retry
// traffic). It returns true to satisfy the AccessFn contract.
func (c *Cache) Access(addr uint64, write bool, done func()) bool {
	la := c.lineAddr(addr)
	readyAt := c.occupyPort()
	c.handle(la, write, done, readyAt, true)
	return true
}

// noop completes fire-and-forget accesses (e.g. writebacks from above).
func noop() {}

// handle runs the lookup logic for a port-granted access. fresh is true
// for a new access and false when re-processing a parked one, so the
// lookup statistics count each access exactly once.
func (c *Cache) handle(la uint64, write bool, done func(), readyAt sim.Cycle, fresh bool) {
	if done == nil {
		done = noop
	}
	idx, tag := c.indexTag(la)
	set := c.ways(idx)
	if w := findWay(set, tag); w >= 0 {
		if fresh {
			c.stats.Lookups.Hit()
		}
		c.touch(idx, w)
		if write {
			set[w] |= lineDirty
		}
		c.eng.At(readyAt, done)
		return
	}
	if fresh {
		c.stats.Lookups.Miss()
	}

	// Merge into an existing outstanding miss for the same line.
	if m := c.findMSHR(la); m != nil {
		c.stats.MSHRMerges++
		m.write = m.write || write
		m.waiters = append(m.waiters, done)
		return
	}
	if c.cfg.MSHRs > 0 && len(c.mshrs) >= c.cfg.MSHRs {
		c.stats.MSHRStalls++
		c.waitq = append(c.waitq, waiting{la: la, write: write, done: done})
		return
	}
	m := c.getMSHR()
	m.la, m.write = la, write
	m.waiters = append(m.waiters, done)
	m.slot = len(c.mshrs)
	c.mshrs = append(c.mshrs, m)
	c.eng.At(readyAt, m.fetchFn)
}

// findMSHR returns the outstanding miss for line la, or nil.
func (c *Cache) findMSHR(la uint64) *mshr {
	for _, m := range c.mshrs {
		if m.la == la {
			return m
		}
	}
	return nil
}

// getMSHR takes a record from the pool, or binds a fresh one's
// callbacks.
func (c *Cache) getMSHR() *mshr {
	if n := len(c.mshrPool); n > 0 {
		m := c.mshrPool[n-1]
		c.mshrPool = c.mshrPool[:n-1]
		return m
	}
	if len(c.mshrSlab) == 0 {
		c.mshrSlab = make([]mshr, 16)
	}
	m := &c.mshrSlab[0]
	c.mshrSlab = c.mshrSlab[1:]
	m.c = c
	m.waiters = m.buf[:0]
	m.fetchFn = m.fetch
	m.fillFn = m.fill
	return m
}

// fetch sends the miss to the lower level, retrying on rejection.
func (m *mshr) fetch() {
	c := m.c
	ok := c.lower(m.la, false, m.fillFn)
	if !ok {
		d := c.cfg.RetryDelay
		if d == 0 {
			d = 8
		}
		c.eng.After(d, m.fetchFn)
	}
}

// fill installs the missed line, releases its waiters and then returns
// the record to the pool.
func (m *mshr) fill() {
	c, la := m.c, m.la
	last := len(c.mshrs) - 1
	c.mshrs[m.slot] = c.mshrs[last]
	c.mshrs[m.slot].slot = m.slot
	c.mshrs[last] = nil
	c.mshrs = c.mshrs[:last]
	c.stats.Fills++

	idx, tag := c.indexTag(la)
	set := c.ways(idx)
	w := c.victim(idx, set)
	if old := set[w]; old&lineValid != 0 {
		c.stats.Evictions++
		if old&lineDirty != 0 {
			c.stats.Writebacks++
			// The tag is the full line address >> lineSh, so shifting
			// back reconstructs the victim's line address.
			c.writeback((old &^ (lineValid | lineDirty)) << c.lineSh)
		}
	}
	set[w] = tag | lineValid
	if m.write {
		set[w] |= lineDirty
	}
	c.touch(idx, w)
	// A waiter may miss again and take a record from the pool, so this
	// one goes back only after the loop.
	for i, fn := range m.waiters {
		m.waiters[i] = nil
		fn()
	}
	m.waiters = m.waiters[:0]
	c.mshrPool = append(c.mshrPool, m)

	// The freed MSHR lets parked accesses proceed. Each iteration either
	// consumes the free MSHR, hits, or merges; re-check capacity before
	// each pop so the loop cannot re-park what it popped.
	for c.waitHead < len(c.waitq) && (c.cfg.MSHRs == 0 || len(c.mshrs) < c.cfg.MSHRs) {
		wq := c.waitq[c.waitHead]
		c.waitq[c.waitHead] = waiting{}
		c.waitHead++
		if c.waitHead == len(c.waitq) {
			c.waitq, c.waitHead = c.waitq[:0], 0
		}
		c.handle(wq.la, wq.write, wq.done, c.eng.Now(), false)
	}
}

// writeback sends a dirty line to the lower level, retrying on rejection.
// Writebacks complete in the background.
func (c *Cache) writeback(la uint64) {
	ok := c.lower(la, true, nil)
	if !ok {
		d := c.cfg.RetryDelay
		if d == 0 {
			d = 8
		}
		c.eng.After(d, func() { c.writeback(la) })
	}
}

// findWay returns the way of set holding tag, or -1.
func findWay(set []uint64, tag uint64) int {
	want := tag | lineValid
	for w, l := range set {
		if l&^lineDirty == want {
			return w
		}
	}
	return -1
}

// touch marks way w of set idx most-recently used in its tree
// pseudo-LRU bits. The tree is stored implicitly: node i has children
// 2i+1, 2i+2; leaves map to ways. Setting the path bits to point *away*
// from w protects it.
func (c *Cache) touch(idx uint64, w int) {
	plru := &c.plru[idx]
	node := 0
	for sz := c.cfg.Ways; sz > 1; {
		half := sz / 2
		if w < half {
			*plru |= 1 << uint(node) // 1 = victim search goes right
			node = 2*node + 1
			sz = half
		} else {
			*plru &^= 1 << uint(node)
			node = 2*node + 2
			w -= half
			sz -= half
		}
	}
}

// victim picks a way of set idx to replace: first invalid way, else
// pseudo-LRU.
func (c *Cache) victim(idx uint64, set []uint64) int {
	for w, l := range set {
		if l&lineValid == 0 {
			return w
		}
	}
	plru := c.plru[idx]
	node, base := 0, 0
	for sz := len(set); sz > 1; {
		half := sz / 2
		if plru&(1<<uint(node)) != 0 { // go right
			node = 2*node + 2
			base += half
			sz -= half
		} else {
			node = 2*node + 1
			sz = half
		}
	}
	return base
}
