package mmu

import "fmt"

// PageTable is a four-level x86-64 radix page table stored in simulated
// physical memory. VPNs are the 36 bits of virtual address above the
// 4 KB page offset (bits 47:12 of a canonical address).
type PageTable struct {
	mem   *PhysMem
	alloc *Allocator
	root  uint64 // physical address of the PML4 frame
}

// NewPageTable creates an empty page table, allocating its root frame.
func NewPageTable(mem *PhysMem, alloc *Allocator) *PageTable {
	rootPFN, ok := alloc.Alloc()
	if !ok {
		panic("mmu: out of physical memory allocating page table root")
	}
	return &PageTable{mem: mem, alloc: alloc, root: rootPFN << PageBits}
}

// levelIndex extracts the 9-bit table index of vpn at the given level,
// where level 0 is the PML4 (root) and level 3 is the leaf PT.
func levelIndex(vpn uint64, level int) uint64 {
	shift := uint(LevelBits * (Levels - 1 - level))
	return (vpn >> shift) & (1<<LevelBits - 1)
}

// MapLarge installs a 2 MB large-page mapping: lvpn is the virtual
// address >> 21, basePFN the (512-aligned) first frame of the backing
// run. The PD entry becomes a PS leaf; PML4 and PDPT levels are built
// as for 4 KB mappings.
func (pt *PageTable) MapLarge(lvpn, basePFN uint64) error {
	if basePFN%FramesPerLarge != 0 {
		return fmt.Errorf("mmu: large-page base frame %#x not 2MB aligned", basePFN)
	}
	vpn := lvpn << LevelBits // 4 KB-granular vpn of the region base
	tbl := pt.root
	for level := 0; level < Levels-2; level++ {
		pteAddr := tbl + levelIndex(vpn, level)*PTESize
		pte := pt.mem.ReadWord(pteAddr)
		if pte&FlagPresent == 0 {
			newPFN, ok := pt.alloc.Alloc()
			if !ok {
				return fmt.Errorf("mmu: out of physical memory at level %d for lvpn %#x", level, lvpn)
			}
			pte = newPFN<<PageBits | FlagPresent | FlagWritable | FlagUser
			pt.mem.WriteWord(pteAddr, pte)
		}
		tbl = pte &^ (PageSize - 1)
	}
	pdeAddr := tbl + levelIndex(vpn, Levels-2)*PTESize
	pt.mem.WriteWord(pdeAddr, basePFN<<PageBits|FlagPresent|FlagWritable|FlagUser|FlagPS)
	return nil
}

// Translate performs a functional (zero-time) walk, returning the mapped
// pfn, or ok=false if vpn is unmapped. For a 4 KB page this is its
// frame; for a 2 MB page it is the frame covering this vpn within the
// large page's backing run.
func (pt *PageTable) Translate(vpn uint64) (pfn uint64, ok bool) {
	pfn, _, ok = pt.TranslateAny(vpn)
	return pfn, ok
}

// TranslateAny walks for vpn and additionally reports the page size of
// the mapping (PageBits or LargePageBits).
func (pt *PageTable) TranslateAny(vpn uint64) (pfn uint64, pageBits uint, ok bool) {
	tbl := pt.root
	for level := 0; level < Levels; level++ {
		pte := pt.mem.ReadWord(tbl + levelIndex(vpn, level)*PTESize)
		if pte&FlagPresent == 0 {
			return 0, 0, false
		}
		if level == Levels-2 && pte&FlagPS != 0 {
			base := pte >> PageBits &^ (FramesPerLarge - 1)
			return base + vpn&(FramesPerLarge-1), LargePageBits, true
		}
		tbl = pte &^ (PageSize - 1)
	}
	return tbl >> PageBits, PageBits, true
}

// WalkPathFaultInto appends to out the physical addresses of the PTEs
// a walk of vpn reads, stopping at (and including) the first
// non-present entry, and reports whether the walk faults. A fully
// mapped vpn reads four entries for a 4 KB mapping and three for a
// 2 MB mapping, whose PD entry is the leaf. A hardware walker issues
// exactly these reads; the last one is where it discovers a fault. Hot
// walk paths pass buf[:0] over a [Levels]uint64 array, so a walk
// allocates nothing.
func (pt *PageTable) WalkPathFaultInto(vpn uint64, out []uint64) (path []uint64, fault bool) {
	tbl := pt.root
	for level := 0; level < Levels; level++ {
		addr := tbl + levelIndex(vpn, level)*PTESize
		out = append(out, addr)
		pte := pt.mem.ReadWord(addr)
		if pte&FlagPresent == 0 {
			return out, true
		}
		if level == Levels-2 && pte&FlagPS != 0 {
			return out, false // 2 MB leaf
		}
		tbl = pte &^ (PageSize - 1)
	}
	return out, false
}

// SetPresent flips the present bit of vpn's leaf PTE (a PT entry for a
// 4 KB page or a PS-marked PD entry for a 2 MB page) while preserving
// the mapped frame, and reports whether a leaf PTE was found. Clearing
// present models the OS paging the page out from under the IOMMU;
// setting it back models fault service reinstating the mapping. Upper
// table levels are never touched. SetPresent on a never-mapped vpn
// reports false.
func (pt *PageTable) SetPresent(vpn uint64, present bool) bool {
	tbl := pt.root
	for level := 0; level < Levels; level++ {
		addr := tbl + levelIndex(vpn, level)*PTESize
		pte := pt.mem.ReadWord(addr)
		leaf := level == Levels-1 || (level == Levels-2 && pte&FlagPS != 0)
		if leaf {
			if pte == 0 {
				return false // never mapped
			}
			if present {
				pte |= FlagPresent
			} else {
				pte &^= FlagPresent
			}
			pt.mem.WriteWord(addr, pte)
			return true
		}
		if pte&FlagPresent == 0 {
			return false
		}
		tbl = pte &^ (PageSize - 1)
	}
	return false
}

// AddressSpace wraps a page table with on-demand mapping: the first
// touch of a virtual page allocates a frame and installs the mapping.
// The simulator premaps traces through it before timing begins.
type AddressSpace struct {
	PT    *PageTable
	alloc *Allocator
	// PageBits selects the mapping granularity: PageBits (12, default)
	// maps 4 KB pages; LargePageBits (21) backs every touched region
	// with 2 MB pages, reproducing the paper's Section VI "why not
	// large pages?" configuration.
	PageBits uint
}

// NewAddressSpace creates an address space over a fresh page table with
// 4 KB pages.
func NewAddressSpace(mem *PhysMem, alloc *Allocator) *AddressSpace {
	return &AddressSpace{PT: NewPageTable(mem, alloc), alloc: alloc, PageBits: PageBits}
}

// Ensure maps the page containing vaddr if it is not already mapped and
// returns its vpn (at the address space's page granularity).
//
// A 4 KB page is found or mapped in one descent of the table: the walk
// stops at the first entry that is not present, or at a 2 MB leaf
// covering the page. A new mapping then takes the data frame first,
// then one frame for each missing table from the top level down.
func (as *AddressSpace) Ensure(vaddr uint64) (uint64, error) {
	if as.PageBits >= LargePageBits {
		return as.ensureLarge(vaddr)
	}
	vpn := vaddr >> PageBits
	pt := as.PT
	tbl := pt.root
	level := 0
	for ; level < Levels; level++ {
		pte := pt.mem.ReadWord(tbl + levelIndex(vpn, level)*PTESize)
		if pte&FlagPresent == 0 {
			break
		}
		if level == Levels-2 && pte&FlagPS != 0 {
			return vpn, nil // inside a 2 MB page
		}
		tbl = pte &^ (PageSize - 1)
	}
	if level == Levels {
		return vpn, nil
	}
	pfn, ok := as.alloc.Alloc()
	if !ok {
		return 0, fmt.Errorf("mmu: out of physical memory mapping vaddr %#x", vaddr)
	}
	for ; level < Levels-1; level++ {
		newPFN, ok := as.alloc.Alloc()
		if !ok {
			return vpn, fmt.Errorf("mmu: out of physical memory at level %d for vpn %#x", level, vpn)
		}
		pt.mem.WriteWord(tbl+levelIndex(vpn, level)*PTESize, newPFN<<PageBits|FlagPresent|FlagWritable|FlagUser)
		tbl = newPFN << PageBits
	}
	pt.mem.WriteWord(tbl+levelIndex(vpn, Levels-1)*PTESize, pfn<<PageBits|FlagPresent|FlagWritable|FlagUser)
	return vpn, nil
}

func (as *AddressSpace) ensureLarge(vaddr uint64) (uint64, error) {
	lvpn := vaddr >> LargePageBits
	if _, ok := as.PT.Translate(lvpn << LevelBits); ok {
		return lvpn, nil
	}
	base, ok := as.alloc.AllocRun(FramesPerLarge)
	if !ok {
		return 0, fmt.Errorf("mmu: out of contiguous physical memory mapping vaddr %#x", vaddr)
	}
	return lvpn, as.PT.MapLarge(lvpn, base)
}
