package gpu

import "slices"

// coalesced is one instruction's unique pages and lines.
type coalesced struct {
	pages    []uint64 // unique vpns
	lines    []uint64 // unique line addresses
	linePage []int    // lines[i] lies in pages[linePage[i]]
}

// coalesce reduces a SIMD instruction's per-lane virtual addresses to
// the unique pages (for translation) and unique cache lines (for data),
// mirroring the hardware coalescer described in Section II. Order is
// first-occurrence order, which keeps runs deterministic. The buffers
// keep their capacity across instructions, and a scan of what one
// wavefront's lanes have found so far stands in for a hash set.
func (co *coalesced) coalesce(lanes []uint64, pageBits uint, lineBytes uint64) {
	if n := len(lanes); cap(co.lines) < n {
		co.pages, co.lines, co.linePage = make([]uint64, 0, n), make([]uint64, 0, n), make([]int, 0, n)
	}
	co.pages, co.lines, co.linePage = co.pages[:0], co.lines[:0], co.linePage[:0]
	lineMask := ^(lineBytes - 1)
	for _, va := range lanes {
		vpn := va >> pageBits
		pi := slices.Index(co.pages, vpn)
		if pi < 0 {
			pi = len(co.pages)
			co.pages = append(co.pages, vpn)
		}
		if la := va & lineMask; !slices.Contains(co.lines, la) {
			co.lines = append(co.lines, la)
			co.linePage = append(co.linePage, pi)
		}
	}
}
