package mmu

import "testing"

func TestAllocRun(t *testing.T) {
	pm := NewPhysMem(64 << 20) // 16384 frames
	alloc := NewAllocator(pm, 5)
	base, ok := alloc.AllocRun(FramesPerLarge)
	if !ok {
		t.Fatal("AllocRun failed on empty memory")
	}
	if base%FramesPerLarge != 0 {
		t.Errorf("run base %#x not aligned", base)
	}
	if base < pm.frames/2 {
		t.Errorf("run base %#x below the huge-page pool floor", base)
	}
	base2, ok := alloc.AllocRun(FramesPerLarge)
	if !ok || base2 == base {
		t.Errorf("second run = %#x,%v", base2, ok)
	}
	// Non-power-of-two run size is rejected.
	if _, ok := alloc.AllocRun(3); ok {
		t.Error("non-power-of-two run accepted")
	}
}

func TestAllocRunSkipsUsedFrames(t *testing.T) {
	pm := NewPhysMem(16 << 20) // 4096 frames
	alloc := NewAllocator(pm, 5)
	// Poison the topmost run candidate by hand.
	alloc.take(4096 - 1)
	base, ok := alloc.AllocRun(FramesPerLarge)
	if !ok {
		t.Fatal("AllocRun failed with one poisoned frame")
	}
	for f := base; f < base+FramesPerLarge; f++ {
		if f == 4096-1 {
			t.Fatal("run includes a used frame")
		}
	}
}

func TestAllocRunExhaustion(t *testing.T) {
	pm := NewPhysMem(8 << 20) // 2048 frames; pool = top 1024 = 2 runs
	alloc := NewAllocator(pm, 5)
	n := 0
	for {
		if _, ok := alloc.AllocRun(FramesPerLarge); !ok {
			break
		}
		n++
		if n > 4 {
			t.Fatal("allocated more runs than physically possible")
		}
	}
	if n != 2 {
		t.Errorf("allocated %d runs, want 2", n)
	}
}

func TestMapLargeTranslate(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	alloc := NewAllocator(pm, 5)
	pt := NewPageTable(pm, alloc)
	base, ok := alloc.AllocRun(FramesPerLarge)
	if !ok {
		t.Fatal("AllocRun failed")
	}
	lvpn := uint64(0x123)
	if err := pt.MapLarge(lvpn, base); err != nil {
		t.Fatal(err)
	}
	// Every 4 KB vpn within the region translates to consecutive frames.
	for _, off := range []uint64{0, 1, 255, 511} {
		pfn, bits, ok := pt.TranslateAny(lvpn<<LevelBits | off)
		if !ok {
			t.Fatalf("offset %d unmapped", off)
		}
		if bits != LargePageBits {
			t.Fatalf("offset %d page bits = %d", off, bits)
		}
		if pfn != base+off {
			t.Fatalf("offset %d pfn = %#x, want %#x", off, pfn, base+off)
		}
	}
	if _, _, ok := pt.TranslateAny((lvpn + 1) << LevelBits); ok {
		t.Error("adjacent region translated")
	}
}

func TestMapLargeRejectsUnaligned(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	alloc := NewAllocator(pm, 5)
	pt := NewPageTable(pm, alloc)
	if err := pt.MapLarge(1, 5); err == nil {
		t.Error("unaligned base frame accepted")
	}
}

func TestWalkPathLargeIsThreeLevels(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	alloc := NewAllocator(pm, 5)
	pt := NewPageTable(pm, alloc)
	base, _ := alloc.AllocRun(FramesPerLarge)
	if err := pt.MapLarge(7, base); err != nil {
		t.Fatal(err)
	}
	path, fault := pt.WalkPathFaultInto(7<<LevelBits, nil)
	if fault || len(path) != 3 {
		t.Fatalf("large-page walk path has %d levels (fault %v), want 3", len(path), fault)
	}
	// The final entry is the PS-marked PDE.
	if pte := pm.ReadWord(path[2]); pte&FlagPS == 0 {
		t.Error("leaf of large-page path is not a PS entry")
	}
}

func TestAddressSpaceLargePages(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	alloc := NewAllocator(pm, 5)
	as := NewAddressSpace(pm, alloc)
	as.PageBits = LargePageBits
	lvpn, err := as.Ensure(0x4000_1234)
	if err != nil {
		t.Fatal(err)
	}
	if lvpn != 0x4000_1234>>LargePageBits {
		t.Errorf("lvpn = %#x", lvpn)
	}
	// Re-ensure within the same region does not allocate again.
	before := alloc.n
	if _, err := as.Ensure(0x4000_1234 + PageSize); err != nil {
		t.Fatal(err)
	}
	if alloc.n != before {
		t.Error("second Ensure in the same region allocated more frames")
	}
	// The 4 KB frame of the address sits at its vpn's place in the run.
	vpn := uint64(0x4000_1234 >> PageBits)
	pfn, ok := as.PT.Translate(vpn)
	if !ok {
		t.Fatal("Translate missed")
	}
	if pfn%FramesPerLarge != vpn%FramesPerLarge {
		t.Errorf("frame %#x is not vpn %#x's frame in its 2 MB run", pfn, vpn)
	}
}

func TestMixedPageSizes(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	alloc := NewAllocator(pm, 5)
	pt := NewPageTable(pm, alloc)
	// A 4 KB mapping and a 2 MB mapping in different regions coexist.
	if err := pt.Map(0x42, 99); err != nil {
		t.Fatal(err)
	}
	base, _ := alloc.AllocRun(FramesPerLarge)
	if err := pt.MapLarge(0x9000, base); err != nil {
		t.Fatal(err)
	}
	if pfn, bits, _ := pt.TranslateAny(0x42); pfn != 99 || bits != PageBits {
		t.Errorf("4 KB mapping broken: %#x/%d", pfn, bits)
	}
	if _, bits, _ := pt.TranslateAny(0x9000 << LevelBits); bits != LargePageBits {
		t.Error("2 MB mapping broken")
	}
	if path, fault := pt.WalkPathFaultInto(0x42, nil); fault || len(path) != 4 {
		t.Errorf("4 KB walk path = %d levels (fault %v)", len(path), fault)
	}
}
