// Fig4timeline reproduces the paper's Figure 4 illustration from a real
// simulation: two SIMD instructions ("load A" with 3 page walks and
// "load B" with 5) arrive at the IOMMU with their requests interleaved.
// Under FCFS, service interleaves and both loads finish late; under the
// SIMT-aware scheduler, batching services each instruction's walks
// together, so A completes much earlier without delaying B.
//
// The timelines below are rendered from the IOMMU's recorded walk
// schedule, not drawn by hand.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gpuwalk/internal/core"
	"gpuwalk/internal/iommu"
	"gpuwalk/internal/mmu"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/pwc"
	"gpuwalk/internal/sim"
	"gpuwalk/internal/textplot"
)

// arrival is one walk request reaching the IOMMU.
type arrival struct {
	vpn   uint64
	instr core.InstrID
}

// fig4Arrivals interleaves load A (instr 1, 3 walks) with load B
// (instr 2, 5 walks), as in the paper's Figure 4.
var fig4Arrivals = []arrival{
	{0x10 << 18, 1}, // A req 0
	{0x20 << 18, 2}, // B req 0
	{0x21 << 18, 2}, // B req 1
	{0x11 << 18, 1}, // A req 1
	{0x22 << 18, 2}, // B req 2
	{0x23 << 18, 2}, // B req 3
	{0x12 << 18, 1}, // A req 2
	{0x24 << 18, 2}, // B req 4
}

func run(kind core.Kind, tracePath string) ([]iommu.WalkRecord, map[core.InstrID]uint64) {
	eng := sim.NewEngine()
	pm := mmu.NewPhysMem(1 << 30)
	alloc := mmu.NewAllocator(pm, 7)
	as := mmu.NewAddressSpace(pm, alloc)

	cfg := iommu.Config{
		L1TLBEntries: 4, L2TLBEntries: 16, L2TLBWays: 4,
		BufferEntries: 16,
		Walkers:       2, // as drawn in the paper's figure
		TransferLat:   5, TLBLat: 1, PWCLat: 2, ReplyLat: 5,
		PWC:            pwc.Config{EntriesPerLevel: 8, Ways: 4},
		RecordSchedule: true,
	}
	dram := func(addr uint64, done func()) bool {
		eng.After(100, done)
		return true
	}
	sched, err := core.New(kind, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	io := iommu.New(eng, cfg, sched, as, dram)

	var tracer *obs.Tracer
	if tracePath != "" {
		tracer = obs.NewTracer()
		tracer.Attach(eng.Now)
		io.SetTracer(tracer)
	}

	finish := map[core.InstrID]uint64{}
	for i, a := range fig4Arrivals {
		a := a
		if _, err := as.Ensure(a.vpn << mmu.PageBits); err != nil {
			log.Fatal(err)
		}
		// Requests trickle in a few cycles apart, interleaved.
		eng.At(sim.Cycle(i*3), func() {
			io.Translate(iommu.TranslateReq{
				VPN:   a.vpn,
				Instr: a.instr,
				Done: func(uint64) {
					if t := uint64(eng.Now()); t > finish[a.instr] {
						finish[a.instr] = t
					}
				},
			})
		})
	}
	eng.Run()
	if tracer != nil {
		if err := tracer.WriteChromeFile(tracePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d events)\n", tracePath, tracer.Len())
	}
	return io.ScheduleLog(), finish
}

func render(name string, log []iommu.WalkRecord, finish map[core.InstrID]uint64) {
	labels := map[core.InstrID]rune{1: 'A', 2: 'B'}
	var spans []textplot.Span
	for _, rec := range log {
		spans = append(spans, textplot.Span{
			Row: rec.Walker, Start: uint64(rec.Start), End: uint64(rec.End),
			Label: labels[rec.Instr],
		})
	}
	textplot.Gantt(os.Stdout, name+": walk service order (A = load A, B = load B)", 2, spans, 64)
	fmt.Printf("load A finishes at cycle %d, load B at cycle %d\n", finish[1], finish[2])
}

func main() {
	tracePrefix := flag.String("trace", "", "write Chrome trace_event JSON files <prefix>-fcfs.json and <prefix>-simt.json")
	flag.Parse()

	fcfsTrace, simtTrace := "", ""
	if *tracePrefix != "" {
		fcfsTrace = *tracePrefix + "-fcfs.json"
		simtTrace = *tracePrefix + "-simt.json"
	}

	fcfsLog, fcfsFinish := run(core.KindFCFS, fcfsTrace)
	render("FCFS (Figure 4a)", fcfsLog, fcfsFinish)

	simtLog, simtFinish := run(core.KindSIMTAware, simtTrace)
	render("SIMT-aware (Figure 4b)", simtLog, simtFinish)

	if simtFinish[1] >= fcfsFinish[1] || simtFinish[2] > fcfsFinish[2]+100 {
		log.Fatal("batching check failed: load A did not finish earlier, or load B was delayed")
	}
	fmt.Println("\nbatching finished load A earlier without hurting load B ✓")
}
