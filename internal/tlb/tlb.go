// Package tlb models translation lookaside buffers: set-associative or
// fully-associative caches of virtual-page to physical-frame mappings
// with true-LRU replacement.
//
// A TLB here is purely structural — lookups and fills are synchronous
// mutations. The surrounding models (internal/gpu for the GPU hierarchy,
// internal/iommu for the IOMMU TLBs) add lookup latency, port contention
// and miss handling, because those differ per level.
package tlb

import (
	"fmt"

	"gpuwalk/internal/obs"
	"gpuwalk/internal/stats"
)

// Config describes one TLB.
type Config struct {
	Name    string
	Entries int
	Ways    int // 0 means fully associative
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb %s: Entries must be positive, got %d", c.Name, c.Entries)
	}
	ways := c.Ways
	if ways == 0 {
		ways = c.Entries
	}
	if c.Entries%ways != 0 {
		return fmt.Errorf("tlb %s: Entries (%d) must be a multiple of Ways (%d)", c.Name, c.Entries, ways)
	}
	sets := c.Entries / ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

type entry struct {
	vpn   uint64
	pfn   uint64
	valid bool
	used  uint64 // LRU stamp
}

type set struct {
	entries []entry
}

// Stats counts TLB activity.
type Stats struct {
	Lookups   stats.Ratio
	Fills     uint64
	Evictions uint64
}

// TLB is one translation lookaside buffer.
type TLB struct {
	sets    []set
	setMask uint64
	clock   uint64
	stats   Stats

	tr  *obs.Tracer // nil unless tracing; see SetTracer
	trk obs.Track
}

// New builds a TLB. Panics on invalid config; use Config.Validate for
// graceful checking.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.Entries
	}
	nsets := cfg.Entries / ways
	t := &TLB{sets: make([]set, nsets), setMask: uint64(nsets - 1)}
	// Every set's ways are carved from one backing array.
	entries := make([]entry, nsets*ways)
	for i := range t.sets {
		t.sets[i].entries = entries[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return t
}

// Stats returns a snapshot of the accumulated statistics.
func (t *TLB) Stats() Stats { return t.stats }

// SetTracer attaches an event tracer; misses are recorded as instants
// on trk. The hot path pays a single nil check when tracing is off.
func (t *TLB) SetTracer(tr *obs.Tracer, trk obs.Track) {
	t.tr, t.trk = tr, trk
}

// Lookup searches for vpn. On a hit it returns the cached pfn, updates
// its recency, and records a hit; on a miss it records a miss.
func (t *TLB) Lookup(vpn uint64) (pfn uint64, ok bool) {
	s := &t.sets[vpn&t.setMask]
	for i := range s.entries {
		e := &s.entries[i]
		if e.valid && e.vpn == vpn {
			t.clock++
			e.used = t.clock
			t.stats.Lookups.Hit()
			return e.pfn, true
		}
	}
	t.stats.Lookups.Miss()
	if tr := t.tr; tr != nil {
		tr.Instant(t.trk, "tlb", "miss", obs.U64("vpn", vpn))
	}
	return 0, false
}

// Insert installs vpn→pfn, evicting the set's least-recently-used
// entry if the set is full. Inserting an already-present vpn refreshes
// its pfn and its recency.
func (t *TLB) Insert(vpn, pfn uint64) {
	s := &t.sets[vpn&t.setMask]
	t.clock++
	for i := range s.entries {
		e := &s.entries[i]
		if e.valid && e.vpn == vpn {
			e.pfn = pfn
			e.used = t.clock
			return
		}
	}
	victim := -1
	for i := range s.entries {
		if !s.entries[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
		for i := range s.entries {
			if s.entries[i].used < s.entries[victim].used {
				victim = i
			}
		}
		t.stats.Evictions++
	}
	s.entries[victim] = entry{vpn: vpn, pfn: pfn, valid: true, used: t.clock}
	t.stats.Fills++
}
