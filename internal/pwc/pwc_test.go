package pwc

import (
	"testing"

	"gpuwalk/internal/mmu"
)

func testConfig() Config {
	return Config{EntriesPerLevel: 8, Ways: 4, CounterGuard: true}
}

func TestColdMissNeedsFullWalk(t *testing.T) {
	p := New(testConfig())
	if n := p.LookupN(0x12345, UpperLevels); n != mmu.Levels {
		t.Errorf("cold Lookup = %d accesses, want %d", n, mmu.Levels)
	}
	if n := p.Probe(0x54321); n != mmu.Levels {
		t.Errorf("cold Probe = %d accesses, want %d", n, mmu.Levels)
	}
}

func TestFillThenHit(t *testing.T) {
	p := New(testConfig())
	vpn := uint64(0x123456789) & (1<<36 - 1)
	p.Fill(vpn)
	// Same vpn: all three upper levels hit, only the PT read remains.
	if n := p.LookupN(vpn, UpperLevels); n != 1 {
		t.Errorf("after Fill, Lookup = %d, want 1", n)
	}
	// A vpn in the same 2MB region shares all upper levels.
	if n := p.LookupN(vpn^1, UpperLevels); n != 1 {
		t.Errorf("same-PD vpn Lookup = %d, want 1", n)
	}
	// Same 1GB region but different 2MB region: PD misses -> 2 accesses.
	if n := p.LookupN(vpn^(1<<mmu.LevelBits), UpperLevels); n != 2 {
		t.Errorf("same-PDPT vpn Lookup = %d, want 2", n)
	}
	// Same 512GB region, different 1GB: only PML4 hits -> 3 accesses.
	if n := p.LookupN(vpn^(1<<(2*mmu.LevelBits)), UpperLevels); n != 3 {
		t.Errorf("same-PML4 vpn Lookup = %d, want 3", n)
	}
	// Different top-level region: full walk.
	if n := p.LookupN(vpn^(1<<(3*mmu.LevelBits)), UpperLevels); n != 4 {
		t.Errorf("far vpn Lookup = %d, want 4", n)
	}
}

func TestProbeMatchesLookupEstimate(t *testing.T) {
	p := New(testConfig())
	vpn := uint64(0xabc000)
	p.Fill(vpn)
	for _, other := range []uint64{vpn, vpn ^ 1, vpn ^ (1 << 9), vpn ^ (1 << 18), vpn ^ (1 << 27)} {
		if pr, lk := p.Probe(other), p.LookupN(other, UpperLevels); pr != lk {
			t.Errorf("Probe(%#x) = %d but Lookup = %d", other, pr, lk)
		}
	}
}

func TestCounterGuardProtects(t *testing.T) {
	cfg := Config{EntriesPerLevel: 4, Ways: 4, CounterGuard: true}
	p := New(cfg) // one set per level, 4 ways
	// Fill 4 distinct PD-level tags (same upper levels).
	base := uint64(0x100000000) & (1<<36 - 1)
	vpns := []uint64{base, base + 1<<9, base + 2<<9, base + 3<<9}
	for _, v := range vpns {
		p.Fill(v)
	}
	// Probe vpns[0]: its entries gain a counter and become protected.
	p.Probe(vpns[0])
	// Fill a new PD tag, forcing an eviction in the PD cache; the
	// protected vpns[0] PD entry must survive.
	p.Fill(base + 7<<9)
	if n := p.LookupN(vpns[0], UpperLevels); n != 1 {
		t.Errorf("protected entry evicted: Lookup = %d, want 1", n)
	}
	// The Lookup above decremented the counter back to zero, so now the
	// entry is evictable again.
	p.Fill(base + 8<<9)
	p.Fill(base + 9<<9)
	p.Fill(base + 10<<9)
	p.Fill(base + 11<<9)
	if n := p.LookupN(vpns[0], UpperLevels); n == 1 {
		t.Error("unprotected LRU entry survived four fills into a full set")
	}
}

func TestGuardDisabledIsPlainLRU(t *testing.T) {
	cfg := Config{EntriesPerLevel: 4, Ways: 4, CounterGuard: false}
	p := New(cfg)
	base := uint64(0x200000000) & (1<<36 - 1)
	for i := uint64(0); i < 4; i++ {
		p.Fill(base + i<<9)
	}
	p.Probe(base) // would protect under the guard; here it must not
	p.Fill(base + 9<<9)
	// base's PD entry was LRU (fills refreshed others later); with the
	// guard off, probing gave no protection.
	if n := p.LookupN(base, UpperLevels); n != 2 {
		t.Errorf("guard-off probe still protected the entry: Lookup = %d, want 2", n)
	}
}

func TestCounterSaturation(t *testing.T) {
	p := New(testConfig())
	vpn := uint64(0x300)
	p.Fill(vpn)
	// Many probes saturate at 3; as many lookups drain it back to 0 and
	// must not underflow.
	for i := 0; i < 10; i++ {
		p.Probe(vpn)
	}
	for i := 0; i < 10; i++ {
		p.LookupN(vpn, UpperLevels)
	}
	// Still functional.
	if n := p.LookupN(vpn, UpperLevels); n != 1 {
		t.Errorf("Lookup after saturation churn = %d", n)
	}
}

func TestAllProtectedFallsBackToLRU(t *testing.T) {
	cfg := Config{EntriesPerLevel: 2, Ways: 2, CounterGuard: true}
	p := New(cfg)
	a := uint64(0x400000000) & (1<<36 - 1)
	b := a + 1<<9
	p.Fill(a)
	p.Fill(b)
	p.Probe(a)
	p.Probe(b) // both PD entries protected
	c := a + 5<<9
	p.Fill(c) // must still evict someone (plain LRU: a)
	if n := p.LookupN(c, UpperLevels); n != 1 {
		t.Errorf("fill into fully-protected set failed: Lookup(c) = %d", n)
	}
}

func TestStats(t *testing.T) {
	p := New(testConfig())
	p.Probe(0x111) // miss
	p.Fill(0x111)
	p.Probe(0x111)                // hit
	p.LookupN(0x111, UpperLevels) // hit
	st := p.Stats()
	if st.Probes.Hits != 1 || st.Probes.Total != 2 {
		t.Errorf("probe stats = %+v", st.Probes)
	}
	if st.Lookups.Hits != 1 {
		t.Errorf("lookup stats = %+v", st.Lookups)
	}
	if st.Fills != 1 {
		t.Errorf("Fills = %d", st.Fills)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{EntriesPerLevel: 0, Ways: 1},
		{EntriesPerLevel: 10, Ways: 4},
		{EntriesPerLevel: 12, Ways: 4}, // 3 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v passed validation", c)
		}
	}
}

func TestFillIdempotentRefresh(t *testing.T) {
	p := New(testConfig())
	p.Fill(0x77)
	p.Fill(0x77) // refresh, no duplicates
	if n := p.LookupN(0x77, UpperLevels); n != 1 {
		t.Errorf("Lookup = %d after double fill", n)
	}
}
