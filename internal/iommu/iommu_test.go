package iommu

import (
	"testing"

	"gpuwalk/internal/core"
	"gpuwalk/internal/mmu"
	"gpuwalk/internal/pwc"
	"gpuwalk/internal/sim"
)

// rig wires an IOMMU to a real page table and a fixed-latency DRAM.
type rig struct {
	eng   *sim.Engine
	io    *IOMMU
	as    *mmu.AddressSpace
	reads int
}

func testConfig() Config {
	return Config{
		L1TLBEntries:  4,
		L2TLBEntries:  16,
		L2TLBWays:     4,
		BufferEntries: 8,
		Walkers:       2,
		TransferLat:   10,
		TLBLat:        2,
		PWCLat:        2,
		ReplyLat:      10,
		PWC:           pwc.Config{EntriesPerLevel: 8, Ways: 4, CounterGuard: true},
	}
}

func newRig(t *testing.T, cfg Config, sched core.IndexedScheduler) *rig {
	t.Helper()
	eng := sim.NewEngine()
	pm := mmu.NewPhysMem(1 << 30)
	alloc := mmu.NewAllocator(pm, 17)
	as := mmu.NewAddressSpace(pm, alloc)
	r := &rig{eng: eng, as: as}
	dram := func(addr uint64, done func()) bool {
		r.reads++
		eng.After(100, done)
		return true
	}
	r.io = New(eng, cfg, sched, as, dram)
	return r
}

func (r *rig) mapPage(t *testing.T, vpn uint64) {
	t.Helper()
	if _, err := r.as.Ensure(vpn << mmu.PageBits); err != nil {
		t.Fatal(err)
	}
}

// translate issues one request and returns a pointer that receives the
// pfn when done.
func (r *rig) translate(vpn uint64, instr core.InstrID) *uint64 {
	out := new(uint64)
	*out = ^uint64(0)
	r.io.Translate(TranslateReq{
		VPN:   vpn,
		Instr: instr,
		Done:  func(pfn uint64) { *out = pfn },
	})
	return out
}

func TestWalkProducesCorrectTranslation(t *testing.T) {
	r := newRig(t, testConfig(), &core.IndexedFIFO{})
	r.mapPage(t, 0x42)
	want, _ := r.as.PT.Translate(0x42)
	got := r.translate(0x42, 1)
	r.eng.Run()
	if *got != want {
		t.Errorf("translated pfn = %#x, want %#x", *got, want)
	}
	st := r.io.Stats()
	if st.WalksDone != 1 {
		t.Errorf("WalksDone = %d, want 1", st.WalksDone)
	}
	// Cold PWC: the walk needed all four accesses.
	if st.WalkAccessHist[4] != 1 {
		t.Errorf("access histogram = %v, want one 4-access walk", st.WalkAccessHist)
	}
	if r.reads != 4 {
		t.Errorf("DRAM reads = %d, want 4", r.reads)
	}
}

func TestPWCShortensSecondWalk(t *testing.T) {
	r := newRig(t, testConfig(), &core.IndexedFIFO{})
	r.mapPage(t, 0x100)
	r.mapPage(t, 0x101) // same 2MB region: shares upper levels
	r.translate(0x100, 1)
	r.eng.Run()
	first := r.reads
	r.translate(0x101, 2)
	r.eng.Run()
	if second := r.reads - first; second != 1 {
		t.Errorf("second walk used %d reads, want 1 (PWC hit)", second)
	}
	st := r.io.Stats()
	if st.WalkAccessHist[1] != 1 || st.WalkAccessHist[4] != 1 {
		t.Errorf("access histogram = %v", st.WalkAccessHist)
	}
}

func TestIOMMUTLBHitSkipsWalk(t *testing.T) {
	r := newRig(t, testConfig(), &core.IndexedFIFO{})
	r.mapPage(t, 0x55)
	r.translate(0x55, 1)
	r.eng.Run()
	walksBefore := r.io.Stats().WalksDone
	got := r.translate(0x55, 2)
	r.eng.Run()
	if r.io.Stats().WalksDone != walksBefore {
		t.Error("second request walked despite IOMMU TLB fill")
	}
	if r.io.Stats().L1Hits != 1 {
		t.Errorf("L1Hits = %d, want 1", r.io.Stats().L1Hits)
	}
	if want, _ := r.as.PT.Translate(0x55); *got != want {
		t.Error("TLB hit returned wrong pfn")
	}
}

func TestWalkerConcurrencyBounded(t *testing.T) {
	cfg := testConfig()
	cfg.Walkers = 2
	r := newRig(t, cfg, &core.IndexedFIFO{})
	for vpn := uint64(0); vpn < 6; vpn++ {
		r.mapPage(t, vpn<<18) // far apart: no PWC sharing
		r.translate(vpn<<18, core.InstrID(vpn))
	}
	// After the transfer+TLB latency, only 2 walks may be in flight; the
	// others queue in the buffer.
	pending := -1
	r.eng.At(sim.Cycle(cfg.TransferLat+cfg.TLBLat+1), func() { pending = r.io.Pending() })
	r.eng.Run()
	if pending != 4 {
		t.Errorf("pending = %d with 2 walkers, want 4", pending)
	}
	if r.io.Stats().WalksDone != 6 {
		t.Errorf("WalksDone = %d, want 6", r.io.Stats().WalksDone)
	}
}

func TestBufferOverflowPromotesFIFO(t *testing.T) {
	cfg := testConfig()
	cfg.BufferEntries = 2
	cfg.Walkers = 1
	r := newRig(t, cfg, &core.IndexedFIFO{})
	var order []uint64
	for i := uint64(0); i < 8; i++ {
		vpn := i << 18
		r.mapPage(t, vpn)
		out := vpn
		r.io.Translate(TranslateReq{
			VPN:   vpn,
			Instr: core.InstrID(i),
			Done:  func(uint64) { order = append(order, out) },
		})
	}
	r.eng.Run()
	if len(order) != 8 {
		t.Fatalf("completed %d of 8", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i]>>18 < order[i-1]>>18 {
			t.Fatalf("FCFS with overflow served out of order: %v", order)
		}
	}
	if r.io.Stats().PreQueuePeak == 0 {
		t.Error("overflow queue never used despite tiny buffer")
	}
}

func TestNoMergeWalksTwice(t *testing.T) {
	cfg := testConfig()
	cfg.Walkers = 1
	r := newRig(t, cfg, &core.IndexedFIFO{})
	r.mapPage(t, 0x9)
	r.mapPage(t, 0x77<<18)
	r.translate(0x77<<18, 1)
	r.translate(0x9, 2)
	r.translate(0x9, 3)
	r.eng.Run()
	if r.io.Stats().WalksDone != 3 {
		t.Errorf("WalksDone = %d, want 3 (duplicates kept distinct)", r.io.Stats().WalksDone)
	}
}

func TestInstrSummaryInterleaving(t *testing.T) {
	cfg := testConfig()
	cfg.Walkers = 1
	r := newRig(t, cfg, &core.IndexedFIFO{})
	// Interleave arrivals of instructions 1 and 2 (two walks each) while
	// the walker is busy with a filler walk.
	vpns := []struct {
		vpn   uint64
		instr core.InstrID
	}{
		{0x1 << 18, 9}, // filler to occupy the walker
		{0x2 << 18, 1},
		{0x3 << 18, 2},
		{0x4 << 18, 1},
		{0x5 << 18, 2},
	}
	for _, v := range vpns {
		r.mapPage(t, v.vpn)
		r.translate(v.vpn, v.instr)
	}
	r.eng.Run()
	sum := r.io.InstrSummary()
	if sum.Multi != 2 {
		t.Fatalf("Multi = %d, want 2", sum.Multi)
	}
	if sum.Interleaved != 2 {
		t.Errorf("Interleaved = %d, want 2 (FCFS preserves interleaved arrival)", sum.Interleaved)
	}
	if sum.MeanLastLat <= sum.MeanFirstLat {
		t.Error("last-completed walk should have higher latency than first")
	}
	if sum.AccessHist.Count() != 3 {
		t.Errorf("AccessHist count = %d, want 3 instructions", sum.AccessHist.Count())
	}
}

func TestBatchingReducesInterleave(t *testing.T) {
	run := func(sched core.IndexedScheduler) InstrSummary {
		cfg := testConfig()
		cfg.Walkers = 1
		r := newRig(t, cfg, sched)
		for i := uint64(0); i < 12; i++ {
			vpn := (i + 1) << 18
			r.mapPage(t, vpn)
			// Instructions 1 and 2 interleaved, plus a filler first.
			instr := core.InstrID(1 + i%2)
			if i == 0 {
				instr = 99
			}
			r.translate(vpn, instr)
		}
		r.eng.Run()
		return r.io.InstrSummary()
	}
	fcfs := run(&core.IndexedFIFO{})
	batch := run(&core.IndexedSIMT{Batching: true, SJF: true, AgingThreshold: 1 << 30})
	if batch.Interleaved >= fcfs.Interleaved {
		t.Errorf("batching interleave %d not below FCFS %d", batch.Interleaved, fcfs.Interleaved)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.BufferEntries = 0 },
		func(c *Config) { c.Walkers = 0 },
		func(c *Config) { c.L1TLBEntries = 0 },
		func(c *Config) { c.PWC.EntriesPerLevel = 0 },
		func(c *Config) { c.RecordLimit = -1 },
	}
	for i, mutate := range bad {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestWalkLatencyAccounting(t *testing.T) {
	r := newRig(t, testConfig(), &core.IndexedFIFO{})
	r.mapPage(t, 0x5)
	r.translate(0x5, 1)
	r.eng.Run()
	st := r.io.Stats()
	if st.WalkLatency.N() != 1 {
		t.Fatalf("WalkLatency samples = %d", st.WalkLatency.N())
	}
	// 4 dependent DRAM reads at 100 cycles each dominate.
	if st.WalkLatency.Value() < 400 {
		t.Errorf("walk latency %.0f < 400 (4 dependent reads)", st.WalkLatency.Value())
	}
}

// TestOverflowAdmissionStrictFIFO checks that a new arrival cannot jump
// into a freed buffer slot while older requests wait in the overflow
// queue.
func TestOverflowAdmissionStrictFIFO(t *testing.T) {
	cfg := testConfig()
	cfg.BufferEntries = 2
	cfg.Walkers = 1
	r := newRig(t, cfg, &core.IndexedFIFO{})
	var order []uint64
	issue := func(i uint64) {
		vpn := (i + 1) << 18
		r.mapPage(t, vpn)
		r.io.Translate(TranslateReq{
			VPN:   vpn,
			Instr: core.InstrID(i),
			Done:  func(uint64) { order = append(order, i) },
		})
	}
	// Saturate walker + buffer + overflow queue ...
	for i := uint64(0); i < 6; i++ {
		issue(i)
	}
	// ... then trickle in younger arrivals while walks drain, so freed
	// buffer slots open up with the overflow queue still occupied.
	for i := uint64(6); i < 10; i++ {
		delay := uint64(200 + 450*(i-6))
		func(i uint64) { r.eng.After(delay, func() { issue(i) }) }(i)
	}
	r.eng.Run()
	if len(order) != 10 {
		t.Fatalf("completed %d of 10", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("service order not FIFO under overflow: %v", order)
		}
	}
	if r.io.Stats().PreQueuePeak == 0 {
		t.Error("overflow queue never engaged; test exercised nothing")
	}
}

// TestIndexedSchedulerPath runs the IOMMU with a built-in indexed
// scheduler from core.New and checks the buffer bookkeeping end to
// end.
func TestIndexedSchedulerPath(t *testing.T) {
	sched, err := core.New(core.KindSIMTAware, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.BufferEntries = 4
	cfg.Walkers = 2
	r := newRig(t, cfg, sched)
	for i := uint64(0); i < 12; i++ {
		vpn := (i + 1) << 18
		r.mapPage(t, vpn)
		r.translate(vpn, core.InstrID(i/3))
	}
	r.eng.Run()
	st := r.io.Stats()
	if st.WalksDone != 12 {
		t.Errorf("WalksDone = %d, want 12", st.WalksDone)
	}
	if r.io.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", r.io.Pending())
	}
	if st.BufferPeak == 0 || st.BufferPeak > cfg.BufferEntries {
		t.Errorf("BufferPeak = %d, want within (0, %d]", st.BufferPeak, cfg.BufferEntries)
	}
}
