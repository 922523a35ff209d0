package main

// Micro-benchmarks of the simulator's hot structures, run with
// testing.Benchmark so their ns/op and allocs/op land in the same
// output as the workloads they explain.

import (
	"flag"
	"testing"

	"gpuwalk/internal/core"
	"gpuwalk/internal/dram"
	"gpuwalk/internal/pwc"
	"gpuwalk/internal/sim"
	"gpuwalk/internal/tlb"
)

// Sinks keep the compiler from discarding measured results.
var (
	sinkU64  uint64
	sinkInt  int
	sinkReq  *core.Request
	sinkBool bool
)

func benchEngineEvent(b *testing.B) {
	eng := sim.NewEngine()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

func benchTLBLookup(b *testing.B) {
	t := tlb.New(tlb.Config{Name: "bench", Entries: 512, Ways: 16})
	for vpn := uint64(0); vpn < 512; vpn++ {
		t.Insert(vpn, vpn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64, sinkBool = t.Lookup(uint64(i) & 511)
	}
}

func benchPWCProbe(b *testing.B) {
	p := pwc.New(pwc.DefaultConfig())
	for vpn := uint64(0); vpn < 64; vpn++ {
		p.Fill(vpn << 9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = p.Probe(uint64(i&63) << 9)
	}
}

func benchDRAMAccess(b *testing.B) {
	eng := sim.NewEngine()
	m := dram.New(eng, dram.DefaultConfig())
	for i := 0; i < b.N; i++ {
		sinkBool = m.Access(uint64(i)*64, false, nil)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// benchSchedPick holds the indexed SIMT-aware scheduler at 256 pending
// requests (the IOMMU's buffer size) and measures one dispatch plus one
// arrival. Requests arrive in same-instruction runs of 8, like the
// coalescer's miss bursts.
func benchSchedPick(b *testing.B) {
	s, err := core.New(core.KindSIMTAware, core.Options{Seed: 1, AgingThreshold: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	ix, ok := s.(core.IndexedScheduler)
	if !ok {
		b.Fatal("simt-aware scheduler is not indexed")
	}
	seq := uint64(0)
	admit := func() {
		seq++
		instr := core.InstrID(seq / 8)
		ix.Admit(&core.Request{Instr: instr, CU: int(uint64(instr) % 8), Seq: seq, Est: 1 + int(seq%4)})
	}
	for i := 0; i < 256; i++ {
		admit()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkReq = ix.Pick()
		admit()
	}
}

// microMetrics runs the micro-benchmarks for about benchtime each.
func microMetrics(m metricSet, benchtime string) error {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	perOp := func(r testing.BenchmarkResult) (ns, allocs float64) {
		n := float64(max(r.N, 1))
		return float64(r.T.Nanoseconds()) / n, float64(r.MemAllocs) / n
	}
	var allocs float64
	m["micro.engine_event_ns"], allocs = perOp(testing.Benchmark(benchEngineEvent))
	m["micro.engine_allocs_per_op"] = allocs
	m["micro.tlb_lookup_ns"], _ = perOp(testing.Benchmark(benchTLBLookup))
	m["micro.pwc_probe_ns"], _ = perOp(testing.Benchmark(benchPWCProbe))
	m["micro.dram_access_ns"], allocs = perOp(testing.Benchmark(benchDRAMAccess))
	m["micro.dram_allocs_per_op"] = allocs
	m["micro.sched_pick_ns"], _ = perOp(testing.Benchmark(benchSchedPick))
	return nil
}
