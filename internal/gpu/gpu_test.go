package gpu

import (
	"slices"
	"testing"

	"gpuwalk/internal/core"
	"gpuwalk/internal/workload"
)

func TestCoalesce(t *testing.T) {
	lanes := []uint64{
		0x1000, 0x1008, 0x1040, // page 1: lines 0x1000 and 0x1040
		0x2000, // page 2
		0x1000, // duplicate
	}
	var co coalesced
	co.coalesce(lanes, 12, 64)
	pages, lines := co.pages, co.lines
	if len(pages) != 2 {
		t.Errorf("pages = %v, want 2 unique", pages)
	}
	if pages[0] != 1 || pages[1] != 2 {
		t.Errorf("pages = %v, want first-occurrence order [1 2]", pages)
	}
	if len(lines) != 3 {
		t.Errorf("lines = %v, want 3 unique", lines)
	}
	if lines[0] != 0x1000 || lines[1] != 0x1040 || lines[2] != 0x2000 {
		t.Errorf("lines = %v not in first-occurrence order", lines)
	}
	if want := []int{0, 0, 1}; !slices.Equal(co.linePage, want) {
		t.Errorf("linePage = %v, want %v", co.linePage, want)
	}
	// A second instruction reuses the buffers and sees none of the first.
	co.coalesce([]uint64{0x3000}, 12, 64)
	if !slices.Equal(co.pages, []uint64{3}) || !slices.Equal(co.lines, []uint64{0x3000}) || !slices.Equal(co.linePage, []int{0}) {
		t.Errorf("reused buffers: pages=%v lines=%v linePage=%v", co.pages, co.lines, co.linePage)
	}
}

func TestCoalesceFullyCoalesced(t *testing.T) {
	lanes := make([]uint64, 64)
	for i := range lanes {
		lanes[i] = 0x4000 + uint64(i)*4 // 256 bytes: 1 page, 4 lines
	}
	var co coalesced
	co.coalesce(lanes, 12, 64)
	if len(co.pages) != 1 || len(co.lines) != 4 {
		t.Errorf("pages=%d lines=%d, want 1 and 4", len(co.pages), len(co.lines))
	}
}

// tinyParams returns a small machine for fast tests.
func tinyParams() Params {
	p := DefaultParams()
	p.GPU.CUs = 2
	p.GPU.WavefrontsPerCU = 2
	p.GPU.L2TLBEntries = 64
	p.GPU.L2TLBWays = 4
	p.IOMMU.Walkers = 2
	p.IOMMU.BufferEntries = 16
	return p
}

// tinyTrace builds a 2-CU trace with the given lanes per instruction.
func tinyTrace(instrsPerWf int, makeLanes func(wf, i int) []uint64) *workload.Trace {
	tr := &workload.Trace{Name: "tiny", Footprint: 1 << 20}
	for wf := 0; wf < 4; wf++ {
		wt := workload.WavefrontTrace{CU: wf % 2}
		for i := 0; i < instrsPerWf; i++ {
			wt.Instrs = append(wt.Instrs, workload.MemInstr{Lanes: makeLanes(wf, i)})
		}
		tr.Wavefronts = append(tr.Wavefronts, wt)
	}
	return tr
}

func TestRunCompletesAllInstructions(t *testing.T) {
	tr := tinyTrace(4, func(wf, i int) []uint64 {
		return []uint64{uint64(wf)<<30 | uint64(i)<<12}
	})
	sys, err := NewSystem(tinyParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 16 {
		t.Errorf("Instructions = %d, want 16", res.Instructions)
	}
	if res.Cycles == 0 {
		t.Error("zero cycles")
	}
	if res.Translations != 16 {
		t.Errorf("Translations = %d, want 16 (one page per instr)", res.Translations)
	}
}

func TestDeterministicRuns(t *testing.T) {
	g, err := workload.ByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.GenConfig{CUs: 2, WavefrontsPerCU: 2, InstrsPerWavefront: 6, Seed: 3}
	run := func() Result {
		sys, err := NewSystem(tinyParams(), g.Generate(gen))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.IOMMU.WalksDone != b.IOMMU.WalksDone ||
		a.StallCycles != b.StallCycles || a.DRAM.Reads != b.DRAM.Reads {
		t.Errorf("runs differ: %+v vs %+v", a.Cycles, b.Cycles)
	}
}

func TestSchedulerChangesOutcome(t *testing.T) {
	g, _ := workload.ByName("MVT")
	gen := workload.GenConfig{WavefrontsPerCU: 4, InstrsPerWavefront: 8, Seed: 5}
	tr := g.Generate(gen)
	run := func(kind core.Kind) Result {
		p := DefaultParams()
		p.SchedKind = kind
		sys, err := NewSystem(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fcfs := run(core.KindFCFS)
	simt := run(core.KindSIMTAware)
	if fcfs.Cycles == simt.Cycles {
		t.Error("schedulers produced identical cycle counts (suspicious)")
	}
	if fcfs.Scheduler != "fcfs" || simt.Scheduler != "simt-aware" {
		t.Errorf("scheduler names = %q, %q", fcfs.Scheduler, simt.Scheduler)
	}
}

func TestDivergentInstrWalksManyPages(t *testing.T) {
	// One instruction with 8 lanes on 8 distinct pages.
	tr := tinyTrace(1, func(wf, i int) []uint64 {
		lanes := make([]uint64, 8)
		for l := range lanes {
			lanes[l] = uint64(wf)<<32 | uint64(l)<<12
		}
		return lanes
	})
	sys, err := NewSystem(tinyParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Translations != 4*8 {
		t.Errorf("Translations = %d, want 32", res.Translations)
	}
	if res.IOMMU.WalksDone == 0 {
		t.Error("no page walks for cold divergent accesses")
	}
}

func TestStallAccounting(t *testing.T) {
	tr := tinyTrace(4, func(wf, i int) []uint64 {
		lanes := make([]uint64, 16)
		for l := range lanes {
			lanes[l] = uint64(wf)<<32 | uint64(l*7)<<12 | uint64(i)<<6
		}
		return lanes
	})
	sys, err := NewSystem(tinyParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StallCycles == 0 {
		t.Error("divergent workload reported zero stall cycles")
	}
	// Summed over 2 CUs, stalls cannot exceed CUs * cycles.
	if res.StallCycles > 2*res.Cycles {
		t.Errorf("StallCycles = %d exceeds 2x run length %d", res.StallCycles, res.Cycles)
	}
}

func TestValidateRejectsBadTrace(t *testing.T) {
	tr := &workload.Trace{Name: "bad", Wavefronts: []workload.WavefrontTrace{
		{CU: 99, Instrs: []workload.MemInstr{{Lanes: []uint64{1}}}},
	}}
	if _, err := NewSystem(tinyParams(), tr); err == nil {
		t.Error("trace with out-of-range CU accepted")
	}
	empty := &workload.Trace{Name: "empty"}
	if _, err := NewSystem(tinyParams(), empty); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	tr := tinyTrace(1, func(wf, i int) []uint64 { return []uint64{4096} })
	p := tinyParams()
	p.GPU.CUs = 0
	if _, err := NewSystem(p, tr); err == nil {
		t.Error("zero-CU config accepted")
	}
	p = tinyParams()
	p.IOMMU.Walkers = 0
	if _, err := NewSystem(p, tr); err == nil {
		t.Error("zero-walker config accepted")
	}
	p = tinyParams()
	p.GPU.WavefrontSched = WFYoungest + 1
	if _, err := NewSystem(p, tr); err == nil {
		t.Error("unknown wavefront scheduler accepted")
	}
}

func TestLSUBoundsConcurrentTranslation(t *testing.T) {
	// More wavefronts than LSU slots: the run must still complete, with
	// instructions queuing for slots.
	p := tinyParams()
	p.GPU.SIMDPerCU = 1
	p.GPU.WavefrontsPerCU = 4
	tr := &workload.Trace{Name: "lsutest", Footprint: 1 << 20}
	for wf := 0; wf < 8; wf++ {
		wt := workload.WavefrontTrace{CU: wf % 2}
		for i := 0; i < 3; i++ {
			wt.Instrs = append(wt.Instrs, workload.MemInstr{
				Lanes: []uint64{uint64(wf)<<32 | uint64(i)<<12},
			})
		}
		tr.Wavefronts = append(tr.Wavefronts, wt)
	}
	sys, err := NewSystem(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 24 {
		t.Errorf("Instructions = %d, want 24", res.Instructions)
	}
}

func TestMoreWavefrontsThanResidency(t *testing.T) {
	// 6 wavefronts pinned to one CU with residency 2: they run in waves.
	p := tinyParams()
	p.GPU.WavefrontsPerCU = 2
	tr := &workload.Trace{Name: "resid", Footprint: 1 << 20}
	for wf := 0; wf < 6; wf++ {
		tr.Wavefronts = append(tr.Wavefronts, workload.WavefrontTrace{
			CU: 0,
			Instrs: []workload.MemInstr{
				{Lanes: []uint64{uint64(wf+1) << 16}},
				{Lanes: []uint64{uint64(wf+1)<<16 | 64}},
			},
		})
	}
	sys, err := NewSystem(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 12 {
		t.Errorf("Instructions = %d, want 12", res.Instructions)
	}
}

func TestEpochTracking(t *testing.T) {
	p := tinyParams()
	p.GPU.EpochLen = 4
	// Force L2 TLB traffic with divergent cold pages.
	tr := tinyTrace(3, func(wf, i int) []uint64 {
		lanes := make([]uint64, 8)
		for l := range lanes {
			lanes[l] = uint64(wf)<<40 | uint64(i)<<20 | uint64(l)<<12
		}
		return lanes
	})
	sys, err := NewSystem(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochMeanWavefronts <= 0 {
		t.Error("epoch tracker recorded nothing")
	}
	if res.EpochMeanWavefronts > 4 {
		t.Errorf("mean distinct wavefronts per 4-access epoch = %f > 4", res.EpochMeanWavefronts)
	}
}

func TestResultAggregation(t *testing.T) {
	g, _ := workload.ByName("ATX")
	tr := g.Generate(workload.GenConfig{CUs: 2, WavefrontsPerCU: 2, InstrsPerWavefront: 4, Seed: 1})
	sys, err := NewSystem(tinyParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "ATX" {
		t.Errorf("Workload = %q", res.Workload)
	}
	if res.GPUL1TLB.Lookups.Total == 0 {
		t.Error("no L1 TLB lookups aggregated")
	}
	if res.L1D.Lookups.Total == 0 {
		t.Error("no L1D lookups aggregated")
	}
	if res.DRAM.Reads == 0 {
		t.Error("no DRAM reads recorded")
	}
	if res.PageWalks() != res.IOMMU.WalksDone {
		t.Error("PageWalks helper inconsistent")
	}
}

func TestWavefrontSchedPolicies(t *testing.T) {
	g, _ := workload.ByName("MVT")
	tr := g.Generate(workload.GenConfig{CUs: 2, WavefrontsPerCU: 4, InstrsPerWavefront: 8, Seed: 6})
	results := map[WavefrontSched]Result{}
	for _, pol := range []WavefrontSched{WFRoundRobin, WFOldest, WFYoungest} {
		p := tinyParams()
		p.GPU.WavefrontSched = pol
		sys, err := NewSystem(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Instructions != uint64(tr.Instructions()) {
			t.Fatalf("%v: incomplete run", pol)
		}
		results[pol] = res
	}
	// Policies must actually change the schedule (cycle counts differ
	// for at least one pair).
	if results[WFRoundRobin].Cycles == results[WFOldest].Cycles &&
		results[WFRoundRobin].Cycles == results[WFYoungest].Cycles {
		t.Error("all wavefront policies produced identical timing (arbitration inert?)")
	}
}

func TestWavefrontSchedString(t *testing.T) {
	if WFRoundRobin.String() != "round-robin" || WFOldest.String() != "oldest-first" ||
		WFYoungest.String() != "youngest-first" {
		t.Error("labels wrong")
	}
	if WavefrontSched(9).String() == "" {
		t.Error("unknown policy empty label")
	}
}
