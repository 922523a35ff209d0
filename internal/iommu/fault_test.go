package iommu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpuwalk/internal/core"
	"gpuwalk/internal/faultinject"
	"gpuwalk/internal/mmu"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/pwc"
	"gpuwalk/internal/sim"
	"gpuwalk/internal/xrand"
)

// faultRig is a small IOMMU test fixture with a real page table and a
// handler that pages faulted pages back in.
type faultRig struct {
	eng *sim.Engine
	as  *mmu.AddressSpace
	io  *IOMMU
}

func newFaultRig(t *testing.T, cfg Config, sched core.IndexedScheduler, inj *faultinject.Injector, nPages int) *faultRig {
	t.Helper()
	eng := sim.NewEngine()
	pm := mmu.NewPhysMem(1 << 30)
	as := mmu.NewAddressSpace(pm, mmu.NewAllocator(pm, 42))
	for p := 0; p < nPages; p++ {
		if _, err := as.Ensure(uint64(p) << mmu.PageBits); err != nil {
			t.Fatal(err)
		}
	}
	dram := func(addr uint64, done func()) bool {
		eng.After(20+(addr>>6)%40, done)
		return true
	}
	io := New(eng, cfg, sched, as, dram)
	io.SetFaultModel(func(vpn4k uint64) bool { return as.PT.SetPresent(vpn4k, true) }, inj)
	return &faultRig{eng: eng, as: as, io: io}
}

func smallFaultConfig() Config {
	return Config{
		L1TLBEntries: 2, L2TLBEntries: 4, L2TLBWays: 2,
		BufferEntries: 16,
		Walkers:       2,
		TransferLat:   3, TLBLat: 1, PWCLat: 1, ReplyLat: 3,
		PWC: pwc.Config{EntriesPerLevel: 8, Ways: 4, CounterGuard: true},
	}
}

// TestPageFaultServiceAndRetry unmaps one page under the IOMMU and
// checks the full fault round trip: park, OS service, retried walk,
// reply — instead of the historical panic.
func TestPageFaultServiceAndRetry(t *testing.T) {
	cfg := smallFaultConfig()
	cfg.Faults.ServiceLat = 500
	rig := newFaultRig(t, cfg, &core.IndexedFIFO{}, nil, 8)
	const vpn = 3
	if !rig.as.PT.SetPresent(vpn, false) {
		t.Fatal("could not unmap test vpn")
	}
	done := 0
	rig.eng.At(1, func() {
		rig.io.Translate(TranslateReq{VPN: vpn, Instr: 1, Done: func(pfn uint64) {
			if got, _ := rig.as.PT.Translate(vpn); got != pfn {
				t.Errorf("replied pfn %#x, want %#x", pfn, got)
			}
			done++
		}})
	})
	final := rig.eng.Run()
	if done != 1 {
		t.Fatalf("done callbacks = %d, want 1", done)
	}
	st := rig.io.Stats()
	if st.Faults != 1 || st.FaultsServiced != 1 || st.WalkRetries != 1 || st.WalksDone != 1 {
		t.Errorf("stats = faults %d serviced %d retries %d done %d, want 1/1/1/1",
			st.Faults, st.FaultsServiced, st.WalkRetries, st.WalksDone)
	}
	if uint64(final) < cfg.Faults.ServiceLat {
		t.Errorf("run finished at cycle %d, before the %d-cycle fault service", final, cfg.Faults.ServiceLat)
	}
	if st.FaultWait.N() != 1 || st.FaultWait.Value() < float64(cfg.Faults.ServiceLat) {
		t.Errorf("FaultWait = %+v, want one observation >= service latency", st.FaultWait)
	}
}

// TestUnmappedWalkFatalWithoutFaultModel pins that the historical
// behaviour is untouched when no fault model is attached.
func TestUnmappedWalkFatalWithoutFaultModel(t *testing.T) {
	eng := sim.NewEngine()
	pm := mmu.NewPhysMem(1 << 30)
	as := mmu.NewAddressSpace(pm, mmu.NewAllocator(pm, 42))
	if _, err := as.Ensure(uint64(3) << mmu.PageBits); err != nil {
		t.Fatal(err)
	}
	dram := func(addr uint64, done func()) bool { eng.After(10, done); return true }
	io := New(eng, smallFaultConfig(), &core.IndexedFIFO{}, as, dram)
	as.PT.SetPresent(3, false)
	io.Translate(TranslateReq{VPN: 3, Done: func(uint64) {}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("walk of an unmapped vpn did not panic without a fault model")
		}
		if !strings.Contains(fmt.Sprint(r), "unmapped vpn") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	eng.Run()
}

// TestFaultQueueNACK forces the single-entry fault queue to overflow
// and checks every NACKed fault still completes via backoff retry.
func TestFaultQueueNACK(t *testing.T) {
	const nPages = 8
	cfg := smallFaultConfig()
	cfg.Walkers = 4
	cfg.Faults = FaultConfig{QueueEntries: 1, ServiceSlots: 1, ServiceLat: 3000, RetryBackoff: 16}
	rig := newFaultRig(t, cfg, &core.IndexedFIFO{}, nil, nPages)
	for p := 0; p < nPages; p++ {
		rig.as.PT.SetPresent(uint64(p), false)
	}
	done := 0
	for p := 0; p < nPages; p++ {
		vpn := uint64(p)
		rig.eng.At(sim.Cycle(1+p), func() {
			rig.io.Translate(TranslateReq{VPN: vpn, Instr: core.InstrID(vpn), Done: func(uint64) { done++ }})
		})
	}
	rig.eng.Run()
	if done != nPages {
		t.Fatalf("done = %d of %d requests", done, nPages)
	}
	st := rig.io.Stats()
	if st.Faults != nPages {
		t.Errorf("Faults = %d, want %d", st.Faults, nPages)
	}
	if st.FaultNACKs == 0 {
		t.Error("expected fault-queue NACKs with QueueEntries=1 and 8 concurrent faults")
	}
	if st.FaultQueuePeak != 1 {
		t.Errorf("FaultQueuePeak = %d, want 1 (bounded)", st.FaultQueuePeak)
	}
	if st.FaultsServiced != nPages {
		t.Errorf("FaultsServiced = %d, want %d", st.FaultsServiced, nPages)
	}
}

// TestOverflowNACK bounds the overflow queue and floods the IOMMU;
// rejected arrivals must retry with backoff and all complete, with the
// queue never exceeding its bound.
func TestOverflowNACK(t *testing.T) {
	const nReqs = 64
	cfg := smallFaultConfig()
	cfg.BufferEntries = 2
	cfg.Walkers = 1
	cfg.OverflowEntries = 2
	rig := newFaultRig(t, cfg, &core.IndexedFIFO{}, nil, 32)
	done := 0
	for i := 0; i < nReqs; i++ {
		vpn := uint64(i % 32)
		rig.eng.At(1, func() {
			rig.io.Translate(TranslateReq{VPN: vpn, Instr: core.InstrID(vpn), Done: func(uint64) { done++ }})
		})
	}
	rig.eng.Run()
	if done != nReqs {
		t.Fatalf("done = %d of %d requests", done, nReqs)
	}
	st := rig.io.Stats()
	if st.OverflowNACKs == 0 {
		t.Error("expected overflow NACKs with OverflowEntries=2 and 64 simultaneous arrivals")
	}
	if st.PreQueuePeak > cfg.OverflowEntries {
		t.Errorf("PreQueuePeak = %d exceeds bound %d", st.PreQueuePeak, cfg.OverflowEntries)
	}
}

// chaosRun drives a random request stream through an IOMMU with all
// three fault classes injected and returns the tracer plus completion
// count. Identical inputs must produce identical traces.
func chaosRun(t *testing.T, kind core.Kind, seed uint64) (*obs.Tracer, int, Stats, faultinject.Stats) {
	t.Helper()
	const (
		aging   = 64
		nReqs   = 2000
		nPages  = 192
		nInstrs = 40
	)
	sched, err := core.New(kind, core.Options{AgingThreshold: aging, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed:             seed,
		NonPresentRate:   0.05,
		WalkerKillPeriod: 11,
		PWCCorruptRate:   0.10,
	})
	cfg := smallFaultConfig()
	cfg.BufferEntries = 32
	cfg.OverflowEntries = 256
	cfg.Faults = FaultConfig{QueueEntries: 8, ServiceSlots: 2, ServiceLat: 400, ServiceJitter: 200, RetryBackoff: 16}
	rig := newFaultRig(t, cfg, sched, inj, nPages)

	tr := obs.NewTracer()
	tr.Attach(rig.eng.Now)
	rig.io.SetTracer(tr)

	rng := xrand.New(seed * 0x9e3779b97f4a7c15)
	done := 0
	at := uint64(0)
	for i := 0; i < nReqs; i++ {
		vpn := rng.Uint64() % uint64(nPages)
		instr := core.InstrID(rng.Uint64() % uint64(nInstrs))
		cu := int(rng.Uint64() % 4)
		at += rng.Uint64() % 6
		rig.eng.At(sim.Cycle(at), func() {
			rig.io.Translate(TranslateReq{
				VPN: vpn, Instr: instr, CU: cu,
				Done: func(uint64) { done++ },
			})
		})
	}
	rig.eng.Run()
	return tr, done, rig.io.Stats(), inj.Stats()
}

// TestChaosInjectionCompletes is the chaos property test: under
// injected non-present faults, walker kills, and PWC corruption, every
// request must still complete — no panics, no losses — and the
// schedulers' starvation bound must hold for every (re-)admission.
func TestChaosInjectionCompletes(t *testing.T) {
	for _, kind := range []core.Kind{core.KindFCFS, core.KindSIMTAware} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				tr, done, st, inj := chaosRun(t, kind, seed)
				if done != 2000 {
					t.Fatalf("completed %d of 2000 requests", done)
				}
				if inj.FaultsInjected == 0 || inj.WalkersKilled == 0 || inj.ProbesCorrupted == 0 {
					t.Fatalf("injection too tame: %+v", inj)
				}
				if st.Faults == 0 || st.FaultsServiced != st.Faults {
					t.Fatalf("faults %d, serviced %d — every fault must be serviced", st.Faults, st.FaultsServiced)
				}
				if st.WalkerKills == 0 || st.WalkRetries < st.WalkerKills {
					t.Fatalf("kills %d, retries %d — every kill must retry", st.WalkerKills, st.WalkRetries)
				}
				// Aging bound per admission: aging + buffer + 1.
				checkDispatchBound(t, tr, 64+32+1)
				t.Logf("faults=%d kills=%d corrupt=%d nacks{fault=%d overflow=%d} retries=%d",
					st.Faults, st.WalkerKills, inj.ProbesCorrupted,
					st.FaultNACKs, st.OverflowNACKs, st.WalkRetries)
			})
		}
	}
}

// TestChaosDeterminism runs the same injected-fault schedule twice and
// requires byte-identical Chrome traces.
func TestChaosDeterminism(t *testing.T) {
	tr1, done1, _, _ := chaosRun(t, core.KindSIMTAware, 7)
	tr2, done2, _, _ := chaosRun(t, core.KindSIMTAware, 7)
	if done1 != done2 {
		t.Fatalf("completion counts differ: %d vs %d", done1, done2)
	}
	var b1, b2 bytes.Buffer
	if err := tr1.WriteChrome(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteChrome(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("traces differ across identical chaos runs (%d vs %d bytes)", b1.Len(), b2.Len())
	}
}
