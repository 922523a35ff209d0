package mmu

import "testing"

// newTestSpace builds a small premapped address space for fault tests.
func newTestSpace(t *testing.T, large bool) *AddressSpace {
	t.Helper()
	pm := NewPhysMem(1 << 30)
	as := NewAddressSpace(pm, NewAllocator(pm, 42))
	if large {
		pm = NewPhysMem(8 << 30)
		as = NewAddressSpace(pm, NewAllocator(pm, 42))
		as.PageBits = LargePageBits
	}
	return as
}

func TestSetPresentRoundTrip(t *testing.T) {
	as := newTestSpace(t, false)
	const vpn = 0x1234
	if _, err := as.Ensure(vpn << PageBits); err != nil {
		t.Fatal(err)
	}
	pfn, ok := as.PT.Translate(vpn)
	if !ok {
		t.Fatal("premapped vpn does not translate")
	}

	if !as.PT.SetPresent(vpn, false) {
		t.Fatal("SetPresent(false) on a mapped vpn reported no leaf")
	}
	if _, ok := as.PT.Translate(vpn); ok {
		t.Fatal("vpn still translates after present bit cleared")
	}
	path, fault := as.PT.WalkPathFaultInto(vpn, nil)
	if !fault {
		t.Fatal("walk did not report a fault")
	}
	if len(path) != Levels {
		t.Fatalf("leaf-level fault path has %d reads, want %d", len(path), Levels)
	}

	if !as.PT.SetPresent(vpn, true) {
		t.Fatal("SetPresent(true) reported no leaf")
	}
	pfn2, ok := as.PT.Translate(vpn)
	if !ok || pfn2 != pfn {
		t.Fatalf("restored translation = (%#x, %v), want (%#x, true)", pfn2, ok, pfn)
	}
	if path2, fault := as.PT.WalkPathFaultInto(vpn, nil); fault {
		t.Fatal("restored vpn still faults")
	} else if len(path2) != Levels {
		t.Fatalf("restored path has %d reads, want %d", len(path2), Levels)
	}
}

func TestSetPresentLargePage(t *testing.T) {
	as := newTestSpace(t, true)
	const lvpn = 7
	if _, err := as.Ensure(lvpn << LargePageBits); err != nil {
		t.Fatal(err)
	}
	vpn := uint64(lvpn) << LevelBits // 4 KB-granular vpn of the region base
	pfn, ok := as.PT.Translate(vpn)
	if !ok {
		t.Fatal("premapped large page does not translate")
	}
	if !as.PT.SetPresent(vpn, false) {
		t.Fatal("SetPresent(false) on a large page reported no leaf")
	}
	path, fault := as.PT.WalkPathFaultInto(vpn, nil)
	if !fault || len(path) != Levels-1 {
		t.Fatalf("large-page fault = (%d reads, %v), want (%d, true)", len(path), fault, Levels-1)
	}
	if !as.PT.SetPresent(vpn, true) {
		t.Fatal("SetPresent(true) on a large page reported no leaf")
	}
	if pfn2, ok := as.PT.Translate(vpn); !ok || pfn2 != pfn {
		t.Fatalf("restored large-page translation = (%#x, %v), want (%#x, true)", pfn2, ok, pfn)
	}
}

func TestSetPresentUnmapped(t *testing.T) {
	as := newTestSpace(t, false)
	if as.PT.SetPresent(0xdead, true) {
		t.Fatal("SetPresent on a never-mapped vpn reported a leaf")
	}
	if as.PT.SetPresent(0xdead, false) {
		t.Fatal("SetPresent(false) on a never-mapped vpn reported a leaf")
	}
}
