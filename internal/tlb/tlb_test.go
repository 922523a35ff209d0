package tlb

import (
	"testing"
	"testing/quick"
)

func TestLookupInsert(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 8})
	if _, ok := tl.Lookup(5); ok {
		t.Error("empty TLB hit")
	}
	tl.Insert(5, 500)
	pfn, ok := tl.Lookup(5)
	if !ok || pfn != 500 {
		t.Errorf("Lookup(5) = %d,%v", pfn, ok)
	}
	st := tl.Stats()
	if st.Lookups.Hits != 1 || st.Lookups.Total != 2 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFullyAssociativeLRU(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 4}) // Ways=0 -> fully associative
	for vpn := uint64(0); vpn < 4; vpn++ {
		tl.Insert(vpn, vpn*10)
	}
	tl.Lookup(0) // make 0 most recently used
	tl.Insert(99, 990)
	if _, ok := tl.Lookup(0); !ok {
		t.Error("recently-used entry evicted")
	}
	if _, ok := tl.Lookup(1); ok {
		t.Error("LRU entry 1 should have been evicted")
	}
	if tl.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", tl.Stats().Evictions)
	}
}

func TestSetAssociativeMapping(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 8, Ways: 2}) // 4 sets x 2 ways
	// VPNs 0, 4, 8 map to set 0; two fit, third evicts LRU.
	tl.Insert(0, 1)
	tl.Insert(4, 2)
	tl.Lookup(0)
	tl.Insert(8, 3)
	if _, ok := tl.Lookup(4); ok {
		t.Error("set-LRU entry survived")
	}
	if _, ok := tl.Lookup(0); !ok {
		t.Error("MRU entry evicted")
	}
	// Other sets unaffected.
	tl.Insert(1, 10)
	if _, ok := tl.Lookup(1); !ok {
		t.Error("other set broken")
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 2})
	tl.Insert(1, 100)
	tl.Insert(2, 200)
	tl.Insert(1, 111) // refresh, not duplicate
	tl.Insert(3, 300) // evicts 2 (LRU), not 1
	if pfn, ok := tl.Lookup(1); !ok || pfn != 111 {
		t.Errorf("refreshed entry = %d,%v", pfn, ok)
	}
	if _, ok := tl.Lookup(2); ok {
		t.Error("LRU not evicted on refresh-then-insert")
	}
	if occupancy(tl) != 2 {
		t.Errorf("Occupancy = %d, want 2", occupancy(tl))
	}
}

func TestValidate(t *testing.T) {
	good := []Config{
		{Name: "a", Entries: 32},
		{Name: "b", Entries: 512, Ways: 16},
		{Name: "c", Entries: 8, Ways: 8},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
	bad := []Config{
		{Name: "d", Entries: 0},
		{Name: "e", Entries: 10, Ways: 4}, // 10 not multiple of 4
		{Name: "f", Entries: 24, Ways: 4}, // 6 sets, not power of two
		{Name: "g", Entries: -4},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v passed validation", c)
		}
	}
}

func TestQuickInsertLookupRoundtrip(t *testing.T) {
	tl := New(Config{Name: "q", Entries: 64, Ways: 4})
	f := func(vpn, pfn uint64) bool {
		tl.Insert(vpn, pfn)
		got, ok := tl.Lookup(vpn)
		return ok && got == pfn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickOccupancyBounded(t *testing.T) {
	tl := New(Config{Name: "q", Entries: 16, Ways: 4})
	f := func(vpns []uint64) bool {
		for _, v := range vpns {
			tl.Insert(v, v)
		}
		return occupancy(tl) <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// occupancy counts t's valid entries.
func occupancy(t *TLB) int {
	n := 0
	for _, s := range t.sets {
		for _, e := range s.entries {
			if e.valid {
				n++
			}
		}
	}
	return n
}
