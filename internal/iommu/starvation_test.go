package iommu

import (
	"fmt"
	"testing"

	"gpuwalk/internal/core"
	"gpuwalk/internal/mmu"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/pwc"
	"gpuwalk/internal/sim"
	"gpuwalk/internal/xrand"
)

// TestStarvationFreedomBound is a property test for the aging rule: on
// randomized request streams, no request admitted to the scheduler
// buffer waits more than AgingThreshold + BufferEntries + 1 dispatches
// before being serviced.
//
// The bound follows from lazy aging (core/index.go): a request admitted
// with P older pending requests (P < BufferEntries) is force-dispatched
// once AgingThreshold + P younger dispatches have passed it, plus one
// dispatch for itself. The test reads admit/dispatch instants from the
// tracer, whose "dsp" argument is the IOMMU's global dispatch counter.
func TestStarvationFreedomBound(t *testing.T) {
	const (
		aging   = 64
		buffer  = 32
		nReqs   = 2500
		nPages  = 256
		nInstrs = 48
	)
	bound := uint64(aging + buffer + 1)

	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("%s/seed%d", core.KindSIMTAware, seed), func(t *testing.T) {
			sched, err := core.New(core.KindSIMTAware, core.Options{AgingThreshold: aging, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tr := runRandomStream(t, sched, seed, buffer, nReqs, nPages, nInstrs)
			checkDispatchBound(t, tr, bound)
		})
	}
}

// runRandomStream drives an IOMMU with a random interleaving of walk
// requests from many instructions and returns the recorded trace.
func runRandomStream(t *testing.T, sched core.IndexedScheduler, seed uint64, buffer, nReqs, nPages, nInstrs int) *obs.Tracer {
	t.Helper()
	eng := sim.NewEngine()
	pm := mmu.NewPhysMem(1 << 30)
	as := mmu.NewAddressSpace(pm, mmu.NewAllocator(pm, seed))
	for p := 0; p < nPages; p++ {
		if _, err := as.Ensure(uint64(p) << mmu.PageBits); err != nil {
			t.Fatal(err)
		}
	}

	cfg := Config{
		// Tiny TLBs so almost every request becomes a walk.
		L1TLBEntries: 2, L2TLBEntries: 4, L2TLBWays: 2,
		BufferEntries: buffer,
		Walkers:       2,
		TransferLat:   3, TLBLat: 1, PWCLat: 1, ReplyLat: 3,
		PWC: pwc.Config{EntriesPerLevel: 8, Ways: 4, CounterGuard: true},
	}
	rng := xrand.New(seed * 0x9e3779b97f4a7c15)
	// Variable DRAM latency so walk lengths differ and SJF reorders.
	dram := func(addr uint64, done func()) bool {
		eng.After(20+(addr>>6)%80, done)
		return true
	}
	io := New(eng, cfg, sched, as, dram)

	tr := obs.NewTracer()
	tr.Attach(eng.Now)
	io.SetTracer(tr)

	at := uint64(0)
	for i := 0; i < nReqs; i++ {
		vpn := rng.Uint64() % uint64(nPages)
		instr := core.InstrID(rng.Uint64() % uint64(nInstrs))
		cu := int(rng.Uint64() % 4)
		at += rng.Uint64() % 6 // bursty arrivals
		eng.At(sim.Cycle(at), func() {
			io.Translate(TranslateReq{
				VPN: vpn, Instr: instr, CU: cu,
				Done: func(uint64) {},
			})
		})
	}
	eng.Run()
	return tr
}

// checkDispatchBound asserts, from the trace, that every scheduler
// dispatch happened within bound dispatches of its admission.
func checkDispatchBound(t *testing.T, tr *obs.Tracer, bound uint64) {
	t.Helper()
	admitDsp := map[uint64]uint64{}
	dispatches := 0
	worst := uint64(0)
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "admit":
			admitDsp[argU64(t, ev, "seq")] = argU64(t, ev, "dsp")
		case "dispatch":
			if argStr(ev, "rule") == "direct" {
				continue // started on an idle walker, never buffered
			}
			seq := argU64(t, ev, "seq")
			adm, ok := admitDsp[seq]
			if !ok {
				t.Fatalf("dispatch of seq %d without admit event", seq)
			}
			delta := argU64(t, ev, "dsp") - adm
			if delta > worst {
				worst = delta
			}
			if delta > bound {
				t.Fatalf("seq %d waited %d dispatches, bound %d", seq, delta, bound)
			}
			dispatches++
		}
	}
	if dispatches < 100 {
		t.Fatalf("only %d scheduler dispatches observed; stream too tame to test starvation", dispatches)
	}
	t.Logf("%d scheduler dispatches, worst wait %d of bound %d", dispatches, worst, bound)
}

func argU64(t *testing.T, ev obs.Event, key string) uint64 {
	t.Helper()
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Val
		}
	}
	t.Fatalf("event %s missing arg %q", ev.Name, key)
	return 0
}

func argStr(ev obs.Event, key string) string {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}
