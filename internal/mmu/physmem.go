// Package mmu provides the OS-side substrate of the simulation: a
// simulated physical memory, a randomized frame allocator, and a real
// four-level x86-64 page table built inside that physical memory.
//
// The page table is "real" in the sense that every mapping is stored as
// an 8-byte PTE at a concrete simulated physical address, so a page walk
// is a chain of up to four dependent reads of concrete DRAM addresses —
// exactly what the IOMMU walkers issue.
package mmu

import (
	"fmt"

	"gpuwalk/internal/xrand"
)

// Page geometry of the x86-64 architecture.
const (
	PageBits  = 12
	PageSize  = 1 << PageBits
	LevelBits = 9 // 512 entries per table level
	Levels    = 4 // PML4, PDPT, PD, PT
	PTESize   = 8
)

// PTE flag bits (subset of x86-64).
const (
	FlagPresent  = 1 << 0
	FlagWritable = 1 << 1
	FlagUser     = 1 << 2
	// FlagPS marks a PD entry as a 2 MB large-page leaf.
	FlagPS = 1 << 7
)

// Large-page geometry: a 2 MB page spans 512 base frames.
const (
	LargePageBits  = PageBits + LevelBits // 21
	FramesPerLarge = 1 << LevelBits
)

// PhysMem is the simulated physical memory. Only page-table words are
// actually stored: each page-table page's 512 words in one array, keyed
// by frame, with the last four frames read or written memoised, so that
// a walk, which reads one frame per level, finds the upper levels
// without the map. Frames are never freed, so a memoised frame never
// goes stale. Data pages exist as allocated frames only, since the
// simulator models timing, not values. The Allocator's bitset of used
// frames costs one bit per frame: 2 MB for the 64 GB that large-page
// runs are sized at.
type PhysMem struct {
	frames uint64
	pages  map[uint64]*frameWords // frame -> its words
	memo   [Levels]memoFrame      // the least recently used is replaced
	clock  uint64                 // frame lookups so far
}

// frameWords holds the 512 words of one page-table frame.
type frameWords [PageSize / PTESize]uint64

// memoFrame is one memoised frame of a PhysMem.
type memoFrame struct {
	pfn   uint64
	used  uint64 // PhysMem.clock at its last lookup
	words *frameWords
}

// NewPhysMem creates a physical memory of the given size in bytes,
// rounded down to whole frames.
func NewPhysMem(size uint64) *PhysMem {
	m := &PhysMem{frames: size / PageSize, pages: make(map[uint64]*frameWords)}
	for i := range m.memo {
		m.memo[i].pfn = ^uint64(0) // no frame: a frame number has at most 52 bits
	}
	return m
}

// page returns the words of addr's frame, creating them if create is
// set; otherwise it returns nil for a frame that holds no words.
func (m *PhysMem) page(addr uint64, create bool) *frameWords {
	pfn := addr >> PageBits
	m.clock++
	lru := 0
	for i := range m.memo {
		e := &m.memo[i]
		if e.pfn == pfn {
			e.used = m.clock
			return e.words
		}
		if e.used < m.memo[lru].used {
			lru = i
		}
	}
	p := m.pages[pfn]
	if p == nil {
		if !create {
			return nil
		}
		p = new(frameWords)
		m.pages[pfn] = p
	}
	m.memo[lru] = memoFrame{pfn, m.clock, p}
	return p
}

// ReadWord returns the 8-byte word at the given physical address
// (which must be 8-byte aligned). Unwritten words read as zero.
func (m *PhysMem) ReadWord(addr uint64) uint64 {
	if addr%PTESize != 0 {
		panic(fmt.Sprintf("mmu: unaligned word read at %#x", addr))
	}
	if p := m.page(addr, false); p != nil {
		return p[addr%PageSize/PTESize]
	}
	return 0
}

// WriteWord stores an 8-byte word at the given physical address.
func (m *PhysMem) WriteWord(addr, val uint64) {
	if addr%PTESize != 0 {
		panic(fmt.Sprintf("mmu: unaligned word write at %#x", addr))
	}
	if p := m.page(addr, val != 0); p != nil {
		p[addr%PageSize/PTESize] = val
	}
}

// Allocator hands out free physical frames. Placement is randomized to
// emulate the frame scatter of a long-running OS: consecutive virtual
// pages land on unrelated frames, so page-table walks and DRAM rows see
// realistic (non-sequential) access patterns.
type Allocator struct {
	mem     *PhysMem
	rng     *xrand.Rand
	used    []uint64 // bitset over frames
	n       uint64
	runNext uint64 // bump pointer for AllocRun (grows downward)
}

// NewAllocator creates an allocator over mem with a deterministic seed.
func NewAllocator(mem *PhysMem, seed uint64) *Allocator {
	return &Allocator{
		mem:  mem,
		rng:  xrand.New(seed),
		used: make([]uint64, (mem.frames+63)/64),
	}
}

// taken reports whether frame pfn has been handed out.
func (a *Allocator) taken(pfn uint64) bool { return a.used[pfn/64]&(1<<(pfn%64)) != 0 }

// take marks frame pfn as handed out.
func (a *Allocator) take(pfn uint64) { a.used[pfn/64] |= 1 << (pfn % 64) }

// Alloc returns a free frame number, or ok=false when memory is
// exhausted. Frame 0 is never returned (kept as a null sentinel).
func (a *Allocator) Alloc() (pfn uint64, ok bool) {
	if a.n+1 >= a.mem.frames {
		return 0, false
	}
	for {
		pfn = 1 + a.rng.Uint64n(a.mem.frames-1)
		if !a.taken(pfn) {
			a.take(pfn)
			a.n++
			return pfn, true
		}
	}
}

// AllocRun returns the base frame of n physically contiguous free
// frames, aligned to n (which must be a power of two), or ok=false when
// no such run exists. Runs are carved top-down from physical memory —
// the way an OS reserves a huge-page pool. Frames already taken by the
// randomized single-frame allocator are skipped; the search stops at
// the halfway point so 4 KB allocations always have room.
func (a *Allocator) AllocRun(n uint64) (base uint64, ok bool) {
	if n == 0 || n&(n-1) != 0 {
		return 0, false
	}
	if a.runNext == 0 {
		a.runNext = a.mem.frames
	}
	if a.runNext < a.mem.frames/2+n {
		return 0, false
	}
cand:
	for cand := (a.runNext - n) &^ (n - 1); cand >= a.mem.frames/2; cand -= n {
		for f := cand; f < cand+n; f++ {
			if a.taken(f) {
				continue cand
			}
		}
		for f := cand; f < cand+n; f++ {
			a.take(f)
		}
		a.n += n
		a.runNext = cand
		return cand, true
	}
	return 0, false
}
