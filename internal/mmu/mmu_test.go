package mmu

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"gpuwalk/internal/xrand"
)

func newTestPT(t *testing.T) (*PhysMem, *Allocator, *PageTable) {
	t.Helper()
	pm := NewPhysMem(1 << 30) // 1 GB
	alloc := NewAllocator(pm, 42)
	return pm, alloc, NewPageTable(pm, alloc)
}

// Map installs vpn -> pfn, allocating intermediate tables as needed.
// Remapping an existing vpn overwrites the leaf PTE. It is the
// reference that TestEnsureMatchesTwoWalks holds Ensure to.
func (pt *PageTable) Map(vpn, pfn uint64) error {
	tbl := pt.root
	for level := 0; level < Levels-1; level++ {
		pteAddr := tbl + levelIndex(vpn, level)*PTESize
		pte := pt.mem.ReadWord(pteAddr)
		if pte&FlagPresent == 0 {
			newPFN, ok := pt.alloc.Alloc()
			if !ok {
				return fmt.Errorf("mmu: out of physical memory at level %d for vpn %#x", level, vpn)
			}
			pte = newPFN<<PageBits | FlagPresent | FlagWritable | FlagUser
			pt.mem.WriteWord(pteAddr, pte)
		}
		tbl = pte &^ (PageSize - 1)
	}
	pt.mem.WriteWord(tbl+levelIndex(vpn, Levels-1)*PTESize, pfn<<PageBits|FlagPresent|FlagWritable|FlagUser)
	return nil
}

func TestMapTranslate(t *testing.T) {
	_, _, pt := newTestPT(t)
	if _, ok := pt.Translate(0x123); ok {
		t.Error("unmapped vpn translated")
	}
	if err := pt.Map(0x123, 0x777); err != nil {
		t.Fatal(err)
	}
	pfn, ok := pt.Translate(0x123)
	if !ok || pfn != 0x777 {
		t.Errorf("Translate = %#x,%v, want 0x777", pfn, ok)
	}
}

func TestRemapOverwrites(t *testing.T) {
	_, _, pt := newTestPT(t)
	pt.Map(7, 100)
	pt.Map(7, 200)
	if pfn, _ := pt.Translate(7); pfn != 200 {
		t.Errorf("remap: Translate = %#x, want 200", pfn)
	}
}

func TestWalkAddrsStructure(t *testing.T) {
	pm, _, pt := newTestPT(t)
	vpn := uint64(0x0_123456789) & (1<<36 - 1)
	if err := pt.Map(vpn, 42); err != nil {
		t.Fatal(err)
	}
	addrs, fault := pt.WalkPathFaultInto(vpn, nil)
	if fault || len(addrs) != Levels {
		t.Fatalf("walk = %d reads, fault %v; want %d, no fault", len(addrs), fault, Levels)
	}
	// First address lies in the root frame.
	if addrs[0]&^(PageSize-1) != pt.root {
		t.Errorf("PML4E address %#x not in root frame %#x", addrs[0], pt.root)
	}
	// Four distinct, 8-byte aligned addresses.
	seen := map[uint64]bool{}
	for lvl, a := range addrs {
		if a%PTESize != 0 {
			t.Errorf("level %d PTE address %#x unaligned", lvl, a)
		}
		if seen[a] {
			t.Errorf("duplicate PTE address %#x", a)
		}
		seen[a] = true
		// Every address holds a present entry.
		if pm.ReadWord(a)&FlagPresent == 0 {
			t.Errorf("level %d PTE not present", lvl)
		}
	}
	// The leaf PTE encodes the mapped frame.
	if leaf := pm.ReadWord(addrs[3]); leaf>>PageBits != 42 {
		t.Errorf("leaf PTE = %#x, want frame 42", leaf)
	}
}

func TestWalkAddrsSharing(t *testing.T) {
	_, _, pt := newTestPT(t)
	walk := func(vpn uint64) []uint64 {
		path, fault := pt.WalkPathFaultInto(vpn, nil)
		if fault || len(path) != Levels {
			t.Fatalf("walk of %#x = %d reads, fault %v", vpn, len(path), fault)
		}
		return path
	}
	// Two vpns in the same 2MB region share the first three levels.
	pt.Map(0x1000, 1)
	pt.Map(0x1001, 2)
	a, b := walk(0x1000), walk(0x1001)
	for lvl := 0; lvl < 3; lvl++ {
		if a[lvl] != b[lvl] {
			t.Errorf("level %d differs for adjacent vpns", lvl)
		}
	}
	if a[3] == b[3] {
		t.Error("leaf PTEs must differ")
	}
	// A vpn in a different top-level region shares nothing.
	far := uint64(1) << 35
	pt.Map(far, 3)
	c := walk(far)
	if c[0] == a[0] {
		t.Error("far vpn shares PML4E slot with near vpn")
	}
}

// TestWalkUnmappedFaults: a walk of a vpn in an empty table reads the
// root entry, finds it not present, and faults there.
func TestWalkUnmappedFaults(t *testing.T) {
	_, _, pt := newTestPT(t)
	path, fault := pt.WalkPathFaultInto(0x5555, nil)
	if !fault || len(path) != 1 || path[0]&^(PageSize-1) != pt.root {
		t.Errorf("walk of unmapped vpn = %#x, fault %v; want one read in the root frame, fault", path, fault)
	}
}

func TestLevelIndex(t *testing.T) {
	// vpn bits: [35:27]=PML4, [26:18]=PDPT, [17:9]=PD, [8:0]=PT.
	vpn := uint64(1)<<27 | uint64(2)<<18 | uint64(3)<<9 | 4
	want := []uint64{1, 2, 3, 4}
	for lvl, w := range want {
		if got := levelIndex(vpn, lvl); got != w {
			t.Errorf("levelIndex(lvl %d) = %d, want %d", lvl, got, w)
		}
	}
}

func TestAllocatorUnique(t *testing.T) {
	pm := NewPhysMem(16 << 20) // 4096 frames
	alloc := NewAllocator(pm, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		pfn, ok := alloc.Alloc()
		if !ok {
			t.Fatalf("allocation %d failed early", i)
		}
		if pfn == 0 || pfn >= pm.frames {
			t.Fatalf("pfn %#x out of range", pfn)
		}
		if seen[pfn] {
			t.Fatalf("frame %#x allocated twice", pfn)
		}
		seen[pfn] = true
	}
	if alloc.n != 2000 {
		t.Errorf("allocated %d frames, want 2000", alloc.n)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	pm := NewPhysMem(8 * PageSize)
	alloc := NewAllocator(pm, 1)
	n := 0
	for {
		if _, ok := alloc.Alloc(); !ok {
			break
		}
		n++
		if n > 10 {
			t.Fatal("allocator exceeded physical frames")
		}
	}
	if n == 0 {
		t.Fatal("no frames allocated at all")
	}
}

func TestAllocatorDeterminism(t *testing.T) {
	seq := func(seed uint64) []uint64 {
		pm := NewPhysMem(1 << 24)
		alloc := NewAllocator(pm, seed)
		out := make([]uint64, 100)
		for i := range out {
			out[i], _ = alloc.Alloc()
		}
		return out
	}
	a, b := seq(5), seq(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different frame sequences")
		}
	}
}

func TestPhysMemWords(t *testing.T) {
	pm := NewPhysMem(1 << 20)
	pm.WriteWord(0x100, 0xdead)
	if pm.ReadWord(0x100) != 0xdead {
		t.Error("word roundtrip failed")
	}
	if pm.ReadWord(0x108) != 0 {
		t.Error("unwritten word not zero")
	}
	pm.WriteWord(0x100, 0)
	if pm.ReadWord(0x100) != 0 {
		t.Error("zeroed word not zero")
	}
}

// TestPhysMemMemo checks the frame memo against a plain map of words:
// reads and writes cycle over more frames than the memo holds, in
// orders that hit every memo slot and evict from it, and touch frames
// that hold no words.
func TestPhysMemMemo(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	want := make(map[uint64]uint64)
	rng := xrand.New(7)
	for i := 0; i < 20000; i++ {
		frame := rng.Uint64n(2 * Levels)
		if i%3 == 0 {
			frame = uint64(i/3) % (Levels + 1) // a cycle one frame longer than the memo
		}
		addr := frame<<PageBits | rng.Uint64n(4)*PTESize
		if rng.Uint64n(4) == 0 {
			val := rng.Uint64n(3) // zero included
			pm.WriteWord(addr, val)
			want[addr] = val
		} else if got := pm.ReadWord(addr); got != want[addr] {
			t.Fatalf("step %d: ReadWord(%#x) = %d, want %d", i, addr, got, want[addr])
		}
	}
}

func TestPhysMemUnalignedPanics(t *testing.T) {
	pm := NewPhysMem(1 << 20)
	defer func() {
		if recover() == nil {
			t.Error("unaligned read did not panic")
		}
	}()
	pm.ReadWord(3)
}

func TestAddressSpaceEnsure(t *testing.T) {
	pm := NewPhysMem(1 << 28)
	alloc := NewAllocator(pm, 9)
	as := NewAddressSpace(pm, alloc)
	vpn, err := as.Ensure(0x1234567)
	if err != nil {
		t.Fatal(err)
	}
	if vpn != 0x1234567>>PageBits {
		t.Errorf("vpn = %#x", vpn)
	}
	// Second Ensure of the same page does not allocate again.
	before := alloc.n
	if _, err := as.Ensure(0x1234567); err != nil {
		t.Fatal(err)
	}
	if alloc.n != before {
		t.Error("double Ensure allocated a second frame")
	}
	if _, ok := as.PT.Translate(vpn); !ok {
		t.Fatal("Translate missed a mapped page")
	}
}

// ensureTwoWalks is the Ensure that the one-descent Ensure replaced:
// Translate to learn the page is unmapped, then a data frame, then Map,
// which walks the same levels again.
func ensureTwoWalks(as *AddressSpace, vaddr uint64) (uint64, error) {
	vpn := vaddr >> PageBits
	if _, ok := as.PT.Translate(vpn); ok {
		return vpn, nil
	}
	pfn, ok := as.alloc.Alloc()
	if !ok {
		return 0, fmt.Errorf("mmu: out of physical memory mapping vaddr %#x", vaddr)
	}
	return vpn, as.PT.Map(vpn, pfn)
}

// TestEnsureMatchesTwoWalks: Ensure takes the same frames in the same
// order and builds the same tables as a Translate followed by a Map. The addresses cluster (shared tables),
// scatter (new tables at every level) and repeat; the table also holds
// a 2 MB page and a paged-out leaf. The small memory runs out midway,
// so the two must also fail alike.
func TestEnsureMatchesTwoWalks(t *testing.T) {
	type side struct {
		pm    *PhysMem
		as    *AddressSpace
		alloc *Allocator
	}
	build := func() side {
		pm := NewPhysMem(1 << 22) // 1,024 frames
		alloc := NewAllocator(pm, 7)
		as := NewAddressSpace(pm, alloc)
		base, _ := alloc.AllocRun(FramesPerLarge)
		if err := as.PT.MapLarge(0x5, base); err != nil {
			t.Fatal(err)
		}
		if err := as.PT.Map(0x7777, 3); err != nil {
			t.Fatal(err)
		}
		as.PT.SetPresent(0x7777, false)
		return side{pm, as, alloc}
	}
	got, want := build(), build()
	rng := xrand.New(3)
	var seen []uint64
	failed := 0
	for i := 0; i < 2000; i++ {
		var vaddr uint64
		switch i % 4 {
		case 0:
			vaddr = rng.Uint64n(1 << 47) // anywhere
		case 1:
			vaddr = 0x40000000 + rng.Uint64n(1<<24) // one 16 MB region
		case 2:
			vaddr = 0x5<<LargePageBits + rng.Uint64n(1<<LargePageBits) // the 2 MB page
		default:
			if len(seen) > 0 {
				vaddr = seen[rng.Uint64n(uint64(len(seen)))] // a repeat
			} else {
				vaddr = 0x7777 << PageBits // the paged-out leaf
			}
		}
		if i == 3 {
			vaddr = 0x7777 << PageBits
		}
		gv, gerr := got.as.Ensure(vaddr)
		wv, werr := ensureTwoWalks(want.as, vaddr)
		if gv != wv || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("Ensure(%#x) = %#x, %v; two walks give %#x, %v", vaddr, gv, gerr, wv, werr)
		}
		if gerr != nil {
			failed++
		} else {
			seen = append(seen, vaddr)
		}
		if got.alloc.n != want.alloc.n {
			t.Fatalf("after Ensure(%#x): %d frames, two walks %d", vaddr, got.alloc.n, want.alloc.n)
		}
	}
	if failed == 0 || len(seen) == 0 {
		t.Fatalf("%d failed and %d mapped Ensures: the memory must run out midway", failed, len(seen))
	}
	for _, vaddr := range seen {
		vpn := vaddr >> PageBits
		gp, gf := got.as.PT.WalkPathFaultInto(vpn, nil)
		wp, wf := want.as.PT.WalkPathFaultInto(vpn, nil)
		gpfn, _ := got.as.PT.Translate(vpn)
		wpfn, _ := want.as.PT.Translate(vpn)
		if fmt.Sprint(gp, gf) != fmt.Sprint(wp, wf) || gpfn != wpfn {
			t.Fatalf("vaddr %#x: walk %v (fault %v) to frame %#x, two walks %v (fault %v) to %#x", vaddr, gp, gf, gpfn, wp, wf, wpfn)
		}
	}
	if !reflect.DeepEqual(got.pm.pages, want.pm.pages) {
		t.Fatal("Ensure and two walks built different page tables")
	}
}

// TestEnsureRange: ensuring each page of a range maps every one of
// them; the first takes its three tables below the root and its data
// frame, and the others, in the same tables, their data frames alone.
func TestEnsureRange(t *testing.T) {
	pm := NewPhysMem(1 << 28)
	alloc := NewAllocator(pm, 9)
	as := NewAddressSpace(pm, alloc)
	for off := uint64(0); off < 3*PageSize; off += PageSize {
		before := alloc.n
		if _, err := as.Ensure(0x10000 + off); err != nil {
			t.Fatal(err)
		}
		want := uint64(1)
		if off == 0 {
			want = Levels
		}
		if alloc.n-before != want {
			t.Errorf("page at +%#x took %d frames, want %d", off, alloc.n-before, want)
		}
	}
	for off := uint64(0); off < 3*PageSize; off += PageSize {
		if _, ok := as.PT.Translate((0x10000 + off) >> PageBits); !ok {
			t.Errorf("page at +%#x not mapped", off)
		}
	}
}

func TestQuickMapTranslateRoundtrip(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	alloc := NewAllocator(pm, 3)
	pt := NewPageTable(pm, alloc)
	f := func(vpn, pfn uint64) bool {
		vpn &= 1<<36 - 1
		pfn &= 1<<40 - 1
		if err := pt.Map(vpn, pfn); err != nil {
			return false
		}
		got, ok := pt.Translate(vpn)
		return ok && got == pfn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkWalk times four-level walks, in random order, over a page
// table holding 2,565 pages scattered over 1 GB of virtual addresses,
// as XSB's are at the ledger's sweep shape. A walk reads one frame per
// level, so it measures PhysMem's frame lookup.
func BenchmarkWalk(b *testing.B) {
	pm := NewPhysMem(1 << 30)
	as := NewAddressSpace(pm, NewAllocator(pm, 1))
	rng := xrand.New(1)
	vpns := make([]uint64, 2565)
	for i := range vpns {
		vpns[i] = 1<<20 + rng.Uint64n(1<<18) // from 4 GB on
		if _, err := as.Ensure(vpns[i] << PageBits); err != nil {
			b.Fatal(err)
		}
	}
	order := make([]uint64, 1<<16)
	for i := range order {
		order[i] = vpns[rng.Uint64n(uint64(len(vpns)))]
	}
	var buf [Levels]uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if path, fault := as.PT.WalkPathFaultInto(order[i%len(order)], buf[:0]); fault || len(path) != Levels {
			b.Fatalf("walk of %#x: %d levels, fault %v", order[i%len(order)], len(path), fault)
		}
	}
}
