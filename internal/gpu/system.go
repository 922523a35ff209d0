package gpu

import (
	"context"
	"fmt"
	"strings"

	"gpuwalk/internal/cache"
	"gpuwalk/internal/core"
	"gpuwalk/internal/dram"
	"gpuwalk/internal/faultinject"
	"gpuwalk/internal/iommu"
	"gpuwalk/internal/mmu"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/pwc"
	"gpuwalk/internal/sim"
	"gpuwalk/internal/stats"
	"gpuwalk/internal/tlb"
	"gpuwalk/internal/workload"
)

// System wires the full simulated machine together: CUs, GPU TLB and
// cache hierarchies, the IOMMU with its scheduler, the page table, and
// DRAM, then executes a workload trace to completion.
type System struct {
	cfg Config
	eng *sim.Engine

	mem       *dram.Memory
	l2c       *cache.Cache
	l2tlb     *tlb.TLB
	l2tlbPort sim.Port
	io        *iommu.IOMMU
	as        *mmu.AddressSpace
	cus       []*cu
	epoch     *stats.EpochDistinct

	trace *workload.Trace

	instrSeq     uint64
	instrsTotal  uint64
	instrsDone   uint64
	translations uint64 // coalesced page-translation requests issued

	// Per-app accounting for multi-tenant traces.
	appRemaining []uint64
	appFinish    []sim.Cycle

	met      *obs.Registry // nil unless metrics sampling is on
	metEpoch uint64

	inj        *faultinject.Injector // nil unless fault injection is on
	watchdogIv uint64                // no-progress watchdog interval (0 = off)
	stallErr   error                 // set by the watchdog on a trip

	progFn    func(Progress) // nil unless live progress is on
	progEvery uint64
}

// Params collects everything needed to build a System.
type Params struct {
	GPU   Config
	DRAM  dram.Config
	IOMMU iommu.Config
	// SchedKind selects a built-in page-walk scheduler. Ignored when
	// Scheduler is non-nil.
	SchedKind core.Kind
	SchedOpts core.Options
	// Scheduler, when non-nil, is a custom slice policy; the IOMMU runs
	// it through core.Adapt.
	Scheduler core.Scheduler
	// PhysBytes sizes simulated physical memory; 0 derives it from the
	// trace footprint (4x footprint + 256 MB headroom for page tables).
	PhysBytes uint64
	// Seed drives frame-allocation randomization.
	Seed uint64

	// Tracer, when non-nil, records structured events from every model
	// layer (scheduler decisions, walker occupancy, TLB misses, PWC
	// protection, DRAM accesses) for Chrome trace_event export. The
	// system attaches the engine clock and registers all tracks.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is sampled into a CSV time series every
	// MetricsEpoch cycles plus once at the end of the run.
	Metrics *obs.Registry
	// MetricsEpoch is the sampling period in cycles (0 uses
	// DefaultMetricsEpoch).
	MetricsEpoch uint64

	// FaultInject enables deterministic fault injection (non-present
	// PTEs, walker kills, PWC probe corruption). The zero value injects
	// nothing and leaves the IOMMU's fault model detached, so fault-free
	// runs are byte-identical to builds without the fault subsystem.
	// When enabled, the system attaches an OS fault handler that pages
	// faulted pages back in via the page table's present bits.
	FaultInject faultinject.Config

	// WatchdogInterval arms a no-progress watchdog: if no instruction,
	// walk, or fault service completes across this many cycles while
	// instructions remain, the run aborts with a diagnostic dump of
	// every queue instead of spinning forever. 0 disables.
	WatchdogInterval uint64

	// Progress, when non-nil, receives a Progress snapshot every
	// ProgressEvery cycles while the run is live, plus one final
	// snapshot when the engine stops (normally, cancelled, or stalled).
	// It is called on the simulation goroutine and must not block or
	// mutate model state; receivers that publish across goroutines
	// should copy the fields into atomics. Like the watchdog, the
	// periodic publication rides daemon events, so it never extends a
	// run past its real work, and a run with Progress unset is
	// byte-identical to one without the hook compiled in.
	Progress func(Progress)
	// ProgressEvery is the publication period in cycles (0 uses
	// DefaultProgressEvery).
	ProgressEvery uint64
}

// Progress is a point-in-time snapshot of a run's forward motion, for
// live telemetry (gpuwalkd's per-job progress). All counters are
// cumulative over the run; InstrsDone/InstrsTotal give completion,
// Cycle gives simulated time.
type Progress struct {
	Cycle        uint64
	InstrsDone   uint64
	InstrsTotal  uint64
	WalksDone    uint64
	Translations uint64
}

// DefaultMetricsEpoch is the default metrics sampling period in cycles.
const DefaultMetricsEpoch = 10000

// DefaultProgressEvery is the default progress publication period in
// cycles. Coarser than the metrics epoch: progress feeds wall-clock
// telemetry (ETAs, live dashboards), not per-epoch analysis.
const DefaultProgressEvery = 50000

// DefaultParams returns the full Table I baseline.
func DefaultParams() Params {
	return Params{
		GPU:       DefaultConfig(),
		DRAM:      dram.DefaultConfig(),
		IOMMU:     iommu.DefaultConfig(),
		SchedKind: core.KindFCFS,
	}
}

// NewSystem builds a system for the given trace.
func NewSystem(p Params, tr *workload.Trace) (*System, error) {
	if err := p.GPU.Validate(); err != nil {
		return nil, err
	}
	if err := p.DRAM.Validate(); err != nil {
		return nil, err
	}
	if err := p.IOMMU.Validate(); err != nil {
		return nil, err
	}
	if err := p.FaultInject.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(p.GPU.CUs); err != nil {
		return nil, err
	}
	var sched core.IndexedScheduler
	if p.Scheduler != nil {
		sched = core.Adapt(p.Scheduler)
	} else {
		var err error
		if sched, err = core.New(p.SchedKind, p.SchedOpts); err != nil {
			return nil, err
		}
	}

	eng := sim.NewEngine()
	s := &System{
		cfg:   p.GPU,
		eng:   eng,
		trace: tr,
		epoch: stats.NewEpochDistinct(p.GPU.EpochLen),
	}
	s.l2tlbPort.Cycles = p.GPU.L2TLBPort

	// OS substrate: physical memory, frame allocator, page table; premap
	// every page the trace touches (the paper does not model demand
	// paging).
	phys := p.PhysBytes
	if phys == 0 {
		phys = 4*tr.Footprint + 256<<20
		if p.GPU.PageBits >= mmu.LargePageBits {
			// Every touched 2 MB region consumes a full huge page of
			// physical memory; size generously (storage is sparse).
			phys = 64 << 30
		}
	}
	pm := mmu.NewPhysMem(phys)
	alloc := mmu.NewAllocator(pm, p.Seed^0x9e3779b97f4a7c15)
	s.as = mmu.NewAddressSpace(pm, alloc)
	if p.GPU.PageBits >= mmu.LargePageBits {
		s.as.PageBits = mmu.LargePageBits
	}
	// Premap in sorted VPN order so frame placement — and with it DRAM
	// timing — is identical across runs of the same trace and seed.
	for _, vpn := range tr.TouchedPages(p.GPU.PageBits) {
		if _, err := s.as.Ensure(vpn << p.GPU.PageBits); err != nil {
			return nil, err
		}
	}

	s.mem = dram.New(eng, p.DRAM)
	s.l2c = cache.New(eng, p.GPU.L2Cache, s.mem.Access)
	s.l2tlb = tlb.New(tlb.Config{Name: "gpu-l2tlb", Entries: p.GPU.L2TLBEntries, Ways: p.GPU.L2TLBWays})
	// Page-walk reads are translation-critical: they go to DRAM with
	// controller priority over ordinary data traffic. The IOMMU walks
	// the address space at its page size, the one the GPU coalesces at.
	s.io = iommu.New(eng, p.IOMMU, sched, s.as, s.mem.AccessPrio)
	s.watchdogIv = p.WatchdogInterval
	if p.FaultInject.Enabled() {
		// Attach the fault model before the tracer so the fault track
		// registers; the handler is the "OS" paging a faulted page back
		// in by restoring its present bit.
		s.inj = faultinject.New(p.FaultInject)
		s.io.SetFaultModel(func(vpn4k uint64) bool {
			return s.as.PT.SetPresent(vpn4k, true)
		}, s.inj)
	}

	s.cus = make([]*cu, p.GPU.CUs)
	for i := range s.cus {
		s.cus[i] = newCU(s, i)
	}
	if p.Tracer != nil {
		p.Tracer.Attach(eng.Now)
		s.io.SetTracer(p.Tracer)
		s.mem.SetTracer(p.Tracer)
		s.l2tlb.SetTracer(p.Tracer, p.Tracer.NewTrack("gpu", "l2tlb"))
		for i, c := range s.cus {
			c.l1tlb.SetTracer(p.Tracer, p.Tracer.NewTrack("gpu", fmt.Sprintf("cu%d-l1tlb", i)))
		}
	}
	if p.Progress != nil {
		s.progFn = p.Progress
		s.progEvery = p.ProgressEvery
		if s.progEvery == 0 {
			s.progEvery = DefaultProgressEvery
		}
	}
	if p.Metrics != nil {
		s.met = p.Metrics
		s.metEpoch = p.MetricsEpoch
		if s.metEpoch == 0 {
			s.metEpoch = DefaultMetricsEpoch
		}
		s.registerMetrics(p.Metrics)
	}

	s.appRemaining = make([]uint64, tr.AppCount())
	s.appFinish = make([]sim.Cycle, tr.AppCount())
	for wi := range tr.Wavefronts {
		wt := &tr.Wavefronts[wi]
		if len(wt.Instrs) == 0 {
			continue
		}
		w := newWavefront(s.cus[wt.CU], uint64(wi), wt.App, wt.Instrs)
		s.cus[wt.CU].pending = append(s.cus[wt.CU].pending, w)
		s.instrsTotal += uint64(len(wt.Instrs))
		s.appRemaining[wt.App] += uint64(len(wt.Instrs))
	}
	return s, nil
}

// registerMetrics wires the standard simulator time series into m.
// Every column is a closure over live model state, evaluated at each
// sample epoch.
func (s *System) registerMetrics(m *obs.Registry) {
	m.Func("instrs.done", func() float64 { return float64(s.instrsDone) })
	m.Func("translations", func() float64 { return float64(s.translations) })
	m.Func("gpu.l2tlb.misses", func() float64 {
		st := s.l2tlb.Stats()
		return float64(st.Lookups.Total - st.Lookups.Hits)
	})
	m.Func("iommu.requests", func() float64 { return float64(s.io.Stats().Requests) })
	m.Func("iommu.walks.started", func() float64 { return float64(s.io.Stats().WalksStarted) })
	m.Func("iommu.walks.done", func() float64 { return float64(s.io.Stats().WalksDone) })
	m.Func("iommu.pending", func() float64 { return float64(s.io.Pending()) })
	m.Func("iommu.idle_walkers", func() float64 { return float64(s.io.IdleWalkers()) })
	m.Func("iommu.walk_latency.mean", func() float64 {
		lat := s.io.Stats().WalkLatency
		return lat.Value()
	})
	m.Func("dram.reads", func() float64 { return float64(s.mem.Stats().Reads) })
	m.Func("dram.row_hits", func() float64 { return float64(s.mem.Stats().RowHits) })
	m.Func("dram.queue", func() float64 { return float64(s.mem.Pending()) })
	if s.inj != nil {
		// Fault columns appear only under injection so fault-free
		// metrics CSVs keep their historical column set byte-for-byte.
		m.Func("iommu.faults", func() float64 { return float64(s.io.Stats().Faults) })
		m.Func("iommu.faults.serviced", func() float64 { return float64(s.io.Stats().FaultsServiced) })
		m.Func("iommu.fault_queue", func() float64 { return float64(s.io.FaultQueueLen()) })
		m.Func("iommu.walk_retries", func() float64 { return float64(s.io.Stats().WalkRetries) })
		m.Func("iommu.walker_kills", func() float64 { return float64(s.io.Stats().WalkerKills) })
	}
}

// noteInstrDone records one completed instruction for app accounting.
func (s *System) noteInstrDone(app int) {
	s.instrsDone++
	s.appRemaining[app]--
	if s.appRemaining[app] == 0 {
		s.appFinish[app] = s.eng.Now()
	}
}

// Engine exposes the simulation engine (tests and tools).
func (s *System) Engine() *sim.Engine { return s.eng }

// IOMMU exposes the IOMMU model (tests and tools).
func (s *System) IOMMU() *iommu.IOMMU { return s.io }

// progress counts completed work units for the watchdog: retired
// instructions, finished walks, and serviced faults. A wedged pipeline
// moves none of these even while backoff/poll events keep firing.
func (s *System) progress() uint64 {
	st := s.io.Stats()
	return s.instrsDone + st.WalksDone + st.FaultsServiced
}

// publishProgress snapshots the same counters the watchdog samples into
// a Progress value and hands it to the registered hook. Runs on the
// simulation goroutine.
func (s *System) publishProgress() {
	s.progFn(Progress{
		Cycle:        uint64(s.eng.Now()),
		InstrsDone:   s.instrsDone,
		InstrsTotal:  s.instrsTotal,
		WalksDone:    s.io.Stats().WalksDone,
		Translations: s.translations,
	})
}

// dumpState renders a queue-by-queue snapshot for the watchdog's
// no-progress diagnostic.
func (s *System) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gpu: instrs=%d/%d translations=%d\n",
		s.instrsDone, s.instrsTotal, s.translations)
	for i, c := range s.cus {
		fmt.Fprintf(&b, "cu%d: ready=%d lsu-queue=%d lsu-free=%d live=%d pending-wf=%d\n",
			i, len(c.readyQ), len(c.lsuQueue), c.lsuFree, c.live, len(c.pending))
	}
	s.io.DumpState(&b)
	fmt.Fprintf(&b, "dram: queue=%d reads=%d\n", s.mem.Pending(), s.mem.Stats().Reads)
	fmt.Fprintf(&b, "engine: pending-events=%d dispatched=%d\n", s.eng.Pending(), s.eng.Dispatched())
	return b.String()
}

// ModelVersion names the simulation model's behavior generation. It is
// part of every persistent result-cache key (internal/simcache), so it
// MUST be bumped whenever a change alters any simulation output for the
// same configuration — otherwise stale cached results would be served
// as current ones. Pure refactors that keep runs byte-identical do not
// bump it.
const ModelVersion = "gpuwalk-model-v4"

// Run executes the workload to completion and returns the results.
func (s *System) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: when ctx is cancelled the engine
// aborts within a few thousand events and RunContext returns ctx's
// error. The partial simulation state is discarded — a cancelled run
// produces no Result.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	for _, c := range s.cus {
		c.start()
	}
	if s.met != nil {
		// Periodic samples are daemon events: they never keep a drained
		// run alive or stretch Cycles to the next epoch boundary.
		s.met.Sample(0)
		sim.StartProgressPublisher(s.eng, s.metEpoch, func() { s.met.Sample(uint64(s.eng.Now())) })
	}
	if s.progFn != nil {
		s.publishProgress() // a zero-cycle baseline carrying InstrsTotal
		sim.StartProgressPublisher(s.eng, s.progEvery, s.publishProgress)
	}
	if s.watchdogIv > 0 {
		sim.StartWatchdog(s.eng, sim.WatchdogConfig{
			Interval: s.watchdogIv,
			Progress: s.progress,
			Pending:  func() bool { return s.instrsDone < s.instrsTotal },
			OnStall: func(*sim.Watchdog) {
				s.stallErr = &sim.StallError{
					At:       s.eng.Now(),
					Progress: s.progress(),
					Interval: s.watchdogIv,
					Dump:     s.dumpState(),
				}
				s.eng.Abort()
			},
		})
	}
	if ctx.Done() == nil {
		// Background and TODO contexts can never be cancelled; skip the
		// interrupt polling entirely so batch runs pay nothing.
		s.eng.Run()
	} else {
		s.eng.RunWithInterrupt(0, func() bool { return ctx.Err() != nil })
	}
	if s.progFn != nil {
		// Final snapshot: every run that started reports at least one
		// post-start publication, however short it was (and however the
		// run ended — finished, cancelled, or stalled).
		s.publishProgress()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("gpu: simulation cancelled at cycle %d: %w", s.eng.Now(), err)
	}
	if s.stallErr != nil {
		return Result{}, s.stallErr
	}
	if s.instrsDone != s.instrsTotal {
		return Result{}, fmt.Errorf("gpu: deadlock — %d of %d instructions completed at cycle %d",
			s.instrsDone, s.instrsTotal, s.eng.Now())
	}
	return s.collect(), nil
}

// Result is everything the experiments read out of one run.
type Result struct {
	Workload  string
	Scheduler string

	Cycles       uint64
	StallCycles  uint64 // summed across CUs
	Instructions uint64
	Translations uint64 // coalesced page-translation requests

	// PerCUStall holds each CU's stall cycles, for fairness analysis
	// (e.g. Jain's index across CUs).
	PerCUStall []uint64

	// PerApp reports each co-running application's completion in a
	// multi-tenant trace (one entry, matching the run, otherwise).
	PerApp []AppResult

	GPUL1TLB tlb.Stats // aggregated over CUs
	GPUL2TLB tlb.Stats
	// EpochMeanWavefronts is the Fig 12 metric: mean distinct wavefronts
	// accessing the GPU L2 TLB per epoch.
	EpochMeanWavefronts float64

	IOMMU      iommu.Stats
	IOMMUL1TLB tlb.Stats
	IOMMUL2TLB tlb.Stats
	PWC        pwc.Stats
	Instr      iommu.InstrSummary
	// Injected reports the fault injector's counters (all zero when
	// fault injection was off).
	Injected faultinject.Stats

	L1D  cache.Stats // aggregated over CUs
	L2D  cache.Stats
	DRAM dram.Stats
}

// AppResult is one application's share of a multi-tenant run.
type AppResult struct {
	Name string
	// FinishCycle is when the app's last instruction completed.
	FinishCycle uint64
}

// PageWalks returns the total number of serviced page-table walks.
func (r *Result) PageWalks() uint64 { return r.IOMMU.WalksDone }

func addTLB(dst *tlb.Stats, s tlb.Stats) {
	dst.Lookups.Hits += s.Lookups.Hits
	dst.Lookups.Total += s.Lookups.Total
	dst.Fills += s.Fills
	dst.Evictions += s.Evictions
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Lookups.Hits += s.Lookups.Hits
	dst.Lookups.Total += s.Lookups.Total
	dst.Fills += s.Fills
	dst.Evictions += s.Evictions
	dst.Writebacks += s.Writebacks
	dst.MSHRMerges += s.MSHRMerges
	dst.MSHRStalls += s.MSHRStalls
}

func (s *System) collect() Result {
	now := s.eng.Now()
	s.epoch.Finish()
	if s.met != nil {
		// Final sample; overwrites a periodic row landing on the same
		// cycle rather than duplicating it.
		s.met.Sample(uint64(now))
	}

	r := Result{
		Workload:            s.trace.Name,
		Scheduler:           s.io.Scheduler().Name(),
		Cycles:              uint64(now),
		Instructions:        s.instrsDone,
		Translations:        s.translations,
		GPUL2TLB:            s.l2tlb.Stats(),
		EpochMeanWavefronts: s.epoch.MeanDistinct(),
		IOMMU:               s.io.Stats(),
		Injected:            s.inj.Stats(),
		PWC:                 s.io.PWCStats(),
		Instr:               s.io.InstrSummary(),
		L2D:                 s.l2c.Stats(),
		DRAM:                s.mem.Stats(),
	}
	r.IOMMUL1TLB, r.IOMMUL2TLB = s.io.TLBStats()
	for app := range s.appFinish {
		name := s.trace.Name
		if len(s.trace.Apps) > 0 {
			name = s.trace.Apps[app]
		}
		r.PerApp = append(r.PerApp, AppResult{Name: name, FinishCycle: uint64(s.appFinish[app])})
	}
	for _, c := range s.cus {
		c.computeInt.Finish(now)
		stall := c.computeInt.ZeroCycles()
		r.StallCycles += stall
		r.PerCUStall = append(r.PerCUStall, stall)
		addTLB(&r.GPUL1TLB, c.l1tlb.Stats())
		addCache(&r.L1D, c.l1c.Stats())
	}
	return r
}
