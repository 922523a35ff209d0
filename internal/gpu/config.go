// Package gpu models the GPU side of the system: compute units executing
// wavefronts of SIMD memory instructions, the per-instruction address
// coalescer, the GPU TLB hierarchy (per-CU L1, shared L2), and the data
// cache hierarchy, all driving the IOMMU and DRAM models.
package gpu

import (
	"fmt"

	"gpuwalk/internal/cache"
	"gpuwalk/internal/tlb"
)

// WavefrontSched selects the CU's wavefront issue arbitration.
type WavefrontSched int

// Wavefront scheduling policies.
const (
	// WFRoundRobin issues ready wavefronts in ready order (default).
	WFRoundRobin WavefrontSched = iota
	// WFOldest prefers the lowest-numbered wavefront (greedy-then-oldest
	// flavor: an old wavefront keeps priority until it retires).
	WFOldest
	// WFYoungest prefers the highest-numbered wavefront (a deliberately
	// poor policy, for contrast in ablations).
	WFYoungest
)

// String implements fmt.Stringer.
func (s WavefrontSched) String() string {
	switch s {
	case WFRoundRobin:
		return "round-robin"
	case WFOldest:
		return "oldest-first"
	case WFYoungest:
		return "youngest-first"
	}
	return fmt.Sprintf("WavefrontSched(%d)", int(s))
}

// Config describes the GPU (Table I baseline via DefaultConfig).
type Config struct {
	CUs             int // compute units
	SIMDPerCU       int // SIMD units per CU (documentation + issue width)
	WavefrontWidth  int // workitems per wavefront
	WavefrontsPerCU int // resident wavefronts per CU (occupancy cap)

	// ComputeGap is the number of cycles a wavefront spends executing
	// non-memory instructions between two memory instructions. It stands
	// in for the ALU work of the kernel.
	ComputeGap uint64

	// WavefrontSched arbitrates which ready wavefront a CU issues next
	// (Section VI of the paper discusses interaction with wavefront
	// schedulers; this axis lets the interaction be measured).
	WavefrontSched WavefrontSched

	// PageBits selects the page size the whole system translates at:
	// 12 (4 KB base pages, the paper's configuration) or 21 (2 MB large
	// pages, the Section VI discussion). With 21, the OS backs every
	// touched region with huge pages, TLB entries cover 2 MB, and walks
	// read three levels instead of four.
	PageBits uint

	L1TLBEntries int // per-CU, fully associative
	L1TLBLat     uint64
	L2TLBEntries int // shared across CUs
	L2TLBWays    int
	L2TLBLat     uint64
	// L2TLBPort is the initiation interval of the shared L2 TLB. The
	// default is 1 (one lookup per cycle); 0 makes it fully banked
	// (latency only) and changes results. A longer interval would
	// stretch one instruction's request burst far beyond walker service
	// time, breaking the batch-scheduling premise the paper relies on.
	L2TLBPort uint64

	// TranslateJitter staggers each translation request by a
	// deterministic 0..TranslateJitter-1 cycles on the L1 miss path
	// (MSHR/fabric arbitration), interleaving concurrent instructions'
	// request streams. Values <= 1 disable jitter.
	TranslateJitter uint64

	L1Cache cache.Config
	L2Cache cache.Config

	// EpochLen is the Figure 12 epoch length in GPU L2 TLB accesses.
	EpochLen uint64

	// RetryDelay is the backoff before retrying a rejected cache access.
	RetryDelay uint64
}

// DefaultConfig returns the Table I baseline GPU.
func DefaultConfig() Config {
	return Config{
		CUs:             8,
		SIMDPerCU:       4,
		WavefrontWidth:  64,
		WavefrontsPerCU: 16,
		ComputeGap:      40,
		PageBits:        12,
		L1TLBEntries:    32,
		L1TLBLat:        1,
		L2TLBEntries:    512,
		L2TLBWays:       16,
		L2TLBLat:        16,
		L2TLBPort:       1,
		TranslateJitter: 16,
		L1Cache: cache.Config{
			Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 16,
			HitLatency: 4, PortCycles: 1, MSHRs: 32,
		},
		L2Cache: cache.Config{
			Name: "l2d", SizeBytes: 4 << 20, LineBytes: 64, Ways: 16,
			HitLatency: 24, PortCycles: 1, MSHRs: 64,
		},
		EpochLen:   1024,
		RetryDelay: 8,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CUs <= 0:
		return fmt.Errorf("gpu: CUs must be positive, got %d", c.CUs)
	case c.WavefrontWidth <= 0:
		return fmt.Errorf("gpu: WavefrontWidth must be positive, got %d", c.WavefrontWidth)
	case c.WavefrontsPerCU <= 0:
		return fmt.Errorf("gpu: WavefrontsPerCU must be positive, got %d", c.WavefrontsPerCU)
	case c.SIMDPerCU <= 0:
		// SIMDPerCU sizes the LSU slot pool; zero would park every
		// memory instruction forever (an instant, silent deadlock).
		return fmt.Errorf("gpu: SIMDPerCU must be positive, got %d", c.SIMDPerCU)
	case c.WavefrontSched < WFRoundRobin || c.WavefrontSched > WFYoungest:
		return fmt.Errorf("gpu: WavefrontSched must be %d (%s), %d (%s) or %d (%s), got %d",
			WFRoundRobin, WFRoundRobin, WFOldest, WFOldest, WFYoungest, WFYoungest, int(c.WavefrontSched))
	case c.PageBits != 12 && c.PageBits != 21:
		return fmt.Errorf("gpu: PageBits must be 12 (4 KB) or 21 (2 MB), got %d", c.PageBits)
	case c.EpochLen == 0:
		return fmt.Errorf("gpu: EpochLen must be positive")
	}
	if err := (tlb.Config{Name: "gpu-l1", Entries: c.L1TLBEntries}).Validate(); err != nil {
		return err
	}
	if err := (tlb.Config{Name: "gpu-l2", Entries: c.L2TLBEntries, Ways: c.L2TLBWays}).Validate(); err != nil {
		return err
	}
	if err := c.L1Cache.Validate(); err != nil {
		return err
	}
	return c.L2Cache.Validate()
}
