// Package iommu models the IOMMU of an HSA-style heterogeneous system:
// the unit in the CPU complex that services the GPU's address-translation
// requests. It contains two small TLB levels, a buffer of pending
// page-table-walk requests, a pool of independent hardware page table
// walkers, and the page walk caches (internal/pwc).
//
// The walk-request buffer is the scheduling point the paper studies: when
// a walker becomes free, a core.IndexedScheduler decides which pending
// request it services next.
package iommu

import (
	"fmt"

	"gpuwalk/internal/core"
	"gpuwalk/internal/faultinject"
	"gpuwalk/internal/mmu"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/pwc"
	"gpuwalk/internal/sim"
	"gpuwalk/internal/stats"
	"gpuwalk/internal/tlb"
)

// Config describes the IOMMU.
type Config struct {
	L1TLBEntries int // small fully-associative IOMMU TLB
	L2TLBEntries int
	L2TLBWays    int

	BufferEntries int // scheduler lookahead window (Table I: 256)
	Walkers       int // concurrent page table walkers (Table I: 8)

	TransferLat uint64 // GPU shared TLB -> IOMMU wire latency
	TLBLat      uint64 // IOMMU TLB lookup latency
	PWCLat      uint64 // PWC lookup latency at walk start
	ReplyLat    uint64 // IOMMU -> GPU reply latency

	PWC pwc.Config

	// RetryDelay is the backoff before retrying a DRAM access the
	// memory controller rejected (full queue).
	RetryDelay uint64

	// RecordSchedule keeps a log of (walker, start, end, instruction)
	// for every serviced walk, capped at RecordLimit entries. Used by
	// the Figure 4 timeline demo and debugging; off by default.
	RecordSchedule bool
	// RecordLimit bounds the schedule log (0 = 4096).
	RecordLimit int

	// OverflowEntries bounds the overflow queue behind the scheduler
	// window. 0 (default) keeps it unbounded, the historical behaviour.
	// When bounded, an arrival that finds the queue full is NACKed and
	// retried with exponential backoff (PRI-style backpressure); the
	// retry re-stamps its arrival sequence, preserving the indexed
	// schedulers' FIFO-admission contract.
	OverflowEntries int

	// Faults configures the OS page-fault service model (see fault.go).
	// Inert until a handler or injector is attached via SetFaultModel.
	Faults FaultConfig
}

// DefaultConfig returns the Table I baseline IOMMU.
func DefaultConfig() Config {
	return Config{
		L1TLBEntries:  32,
		L2TLBEntries:  256,
		L2TLBWays:     8,
		BufferEntries: 256,
		Walkers:       8,
		TransferLat:   50,
		TLBLat:        4,
		PWCLat:        4,
		ReplyLat:      50,
		PWC:           pwc.DefaultConfig(),
		RetryDelay:    8,
	}
}

// Validate reports configuration errors. It covers every constraint
// construction enforces — including the embedded TLB and PWC
// geometries — so a config that validates cannot panic in New.
func (c Config) Validate() error {
	switch {
	case c.BufferEntries <= 0:
		return fmt.Errorf("iommu: BufferEntries must be positive, got %d", c.BufferEntries)
	case c.Walkers <= 0:
		return fmt.Errorf("iommu: Walkers must be positive, got %d", c.Walkers)
	case c.OverflowEntries < 0:
		return fmt.Errorf("iommu: OverflowEntries must be >= 0, got %d", c.OverflowEntries)
	case c.RecordLimit < 0:
		return fmt.Errorf("iommu: RecordLimit must be >= 0, got %d", c.RecordLimit)
	}
	if err := c.l1Config().Validate(); err != nil {
		return fmt.Errorf("iommu: %w", err)
	}
	if err := c.l2Config().Validate(); err != nil {
		return fmt.Errorf("iommu: %w", err)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.PWC.Validate()
}

// l1Config / l2Config build the embedded TLB configurations. New and
// Validate must agree on these so Validate catches every construction
// panic.
func (c Config) l1Config() tlb.Config {
	return tlb.Config{Name: "iommu-l1", Entries: c.L1TLBEntries}
}

func (c Config) l2Config() tlb.Config {
	return tlb.Config{Name: "iommu-l2", Entries: c.L2TLBEntries, Ways: c.L2TLBWays}
}

// DRAMFn issues one memory read for a page-table entry; done runs at
// completion. It reports false if the controller queue is full.
type DRAMFn func(addr uint64, done func()) bool

// TranslateReq is a translation request arriving from the GPU's shared
// L2 TLB (a GPU-TLB-hierarchy miss).
type TranslateReq struct {
	VPN       uint64
	Instr     core.InstrID
	Wavefront uint64
	CU        int
	// Done receives the translated physical frame number.
	Done func(pfn uint64)
}

// instrInfo aggregates per-SIMD-instruction walk behaviour for the
// paper's Figures 3, 5, 6 and 10.
type instrInfo struct {
	walks         int // walk requests serviced
	accesses      int // total page-table memory accesses
	schedCount    uint64
	firstSchedSeq uint64
	lastSchedSeq  uint64
	firstDoneLat  uint64 // latency of the earliest-completing walk
	lastDoneLat   uint64 // latency of the latest-completing walk
	completions   int
}

// Stats aggregates IOMMU activity.
//
// Prefetches, PrefetchHits, Merged and PrefetchFaultDrops are always
// zero: they counted a next-page prefetcher and same-VPN merging that
// the model no longer has. They stay so that every Result keeps its
// JSON shape until the next gpu.ModelVersion bump removes them.
type Stats struct {
	Requests       uint64 // translation requests received
	Prefetches     uint64 // always zero
	PrefetchHits   uint64 // always zero
	L1Hits         uint64
	L2Hits         uint64
	WalksStarted   uint64
	WalksDone      uint64
	WalkAccessHist [mmu.Levels + 1]uint64 // index = accesses per walk (1..4)
	Merged         uint64                 // always zero
	BufferPeak     int
	PreQueuePeak   int
	WalkLatency    stats.Mean     // request arrival -> walk completion, cycles
	WalkLatencyQ   stats.Quantile // same, as P50/P95/P99 quantiles
	BufferWait     stats.Mean     // request arrival -> walk start, cycles

	// Fault-model counters; all stay zero unless a fault handler or
	// injector is attached (SetFaultModel) or OverflowEntries bounds
	// the overflow queue.
	Faults             uint64 // walks that found a non-present PTE
	FaultsServiced     uint64 // OS fault services completed
	FaultNACKs         uint64 // fault-queue-full rejections (retried)
	OverflowNACKs      uint64 // overflow-queue-full rejections (retried)
	WalkRetries        uint64 // re-admissions after a fault or walker kill
	WalkerKills        uint64 // injected walker deaths
	PrefetchFaultDrops uint64 // always zero
	FaultQueuePeak     int
	FaultWait          stats.Mean // fault detection -> service completion, cycles
}

// InstrSummary is the per-instruction aggregate view used by the
// experiment layer.
type InstrSummary struct {
	// AccessHist is the Figure 3 histogram: per instruction, the total
	// number of page-table memory accesses its walks needed.
	AccessHist *stats.Histogram
	// Multi counts instructions with >= 2 walks (the Fig 5/6/10
	// population); Interleaved counts those whose walks interleaved
	// with another instruction's.
	Multi       uint64
	Interleaved uint64
	// MeanFirstLat / MeanLastLat are the Fig 6 metrics over the Multi
	// population: average latency of the first- and last-completed walk.
	MeanFirstLat float64
	MeanLastLat  float64
}

// IOMMU is the modeled unit.
type IOMMU struct {
	cfg   Config
	eng   *sim.Engine
	sched core.IndexedScheduler // owns the pending-walk buffer
	pt    *mmu.PageTable
	dram  DRAMFn
	pwc   *pwc.PWC

	// pageBits is the address space's page size, which request VPNs
	// are in: mmu.PageBits (4 KB) or mmu.LargePageBits (2 MB, whose
	// walks read three PTE levels instead of four).
	pageBits uint

	l1 *tlb.TLB
	l2 *tlb.TLB

	preQueue []*request // overflow beyond the scheduler window, FIFO
	seq      uint64     // arrival sequence numbers
	schedSeq uint64     // global service-order sequence

	idleWalkers int

	instrs []instrInfo // indexed by the GPU's dense InstrID
	stats  Stats

	// reqPool and walkPool recycle request records and walkState
	// objects (with their pre-bound callbacks and, for walks, PTE-address
	// buffers) so steady-state translations allocate nothing. reqSlab
	// holds records not yet handed out, allocated in blocks.
	reqPool  []*request
	reqSlab  []request
	walkPool []*walkState

	// freeWalkers tracks walker identities whenever the schedule log or
	// the tracer needs them (trackWalkers).
	freeWalkers  []int
	schedule     []WalkRecord
	trackWalkers bool

	tr        *obs.Tracer // nil unless tracing; see SetTracer
	trkSched  obs.Track
	trkWalker []obs.Track
	trkFault  obs.Track
	nextRule  core.Decision // rule behind the next dispatch

	// Fault model (fault.go): handler reinstates non-present pages (nil
	// keeps unmapped walks fatal), inj optionally injects faults,
	// faultQ holds faults awaiting an OS service slot.
	faultHandler FaultHandlerFn
	inj          *faultinject.Injector
	faultQ       []*request
	inService    int
}

// request is the IOMMU's record of one translation request, from
// Translate to its reply. Records are pooled (getRequest/putRequest)
// with their callbacks bound once, so a steady-state request allocates
// nothing. The embedded core.Request is what the scheduler sees, and
// its Owner points back here. A record returns to the pool only after
// its last callback has run and it has left the scheduler, the
// overflow and fault queues, and its walk.
type request struct {
	core.Request
	io *IOMMU

	done    func(pfn uint64) // the requester's callback
	pfn     uint64           // the reply's payload
	walker  int              // the walker serving it (trackWalkers)
	start   sim.Cycle        // when that walker took it (trackWalkers)
	faultAt sim.Cycle        // when its last page fault was found

	lookupFn func() // bound r.lookupTLBs
	replyFn  func() // bound r.deliver
}

// WalkRecord is one serviced walk in the schedule log.
type WalkRecord struct {
	Walker int
	Start  sim.Cycle
	End    sim.Cycle
	Instr  core.InstrID
	VPN    uint64
}

// New builds an IOMMU that walks as's page table at as's page size.
// Panics on invalid config; use Config.Validate for graceful checking.
func New(eng *sim.Engine, cfg Config, sched core.IndexedScheduler, as *mmu.AddressSpace, dram DRAMFn) *IOMMU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	io := &IOMMU{
		cfg:         cfg,
		eng:         eng,
		sched:       sched,
		pt:          as.PT,
		dram:        dram,
		pwc:         pwc.New(cfg.PWC),
		pageBits:    as.PageBits,
		l1:          tlb.New(cfg.l1Config()),
		l2:          tlb.New(cfg.l2Config()),
		idleWalkers: cfg.Walkers,
	}
	io.trackWalkers = cfg.RecordSchedule
	for i := cfg.Walkers - 1; i >= 0; i-- {
		io.freeWalkers = append(io.freeWalkers, i)
	}
	return io
}

// SetTracer attaches an event tracer. The IOMMU registers a scheduler
// thread plus one thread per hardware walker under an "iommu" process
// and hands tracks to its embedded TLBs and PWC. Walk spans need
// walker identities, so tracing enables the walker bookkeeping the
// schedule log uses; call SetTracer before the run starts. When
// tracing is off every hook site costs one nil pointer check.
func (io *IOMMU) SetTracer(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	io.tr = tr
	io.trkSched = tr.NewTrack("iommu", "sched")
	io.trkWalker = make([]obs.Track, io.cfg.Walkers)
	for i := range io.trkWalker {
		io.trkWalker[i] = tr.NewTrack("iommu", fmt.Sprintf("walker%d", i))
	}
	io.l1.SetTracer(tr, tr.NewTrack("iommu", "l1tlb"))
	io.l2.SetTracer(tr, tr.NewTrack("iommu", "l2tlb"))
	io.pwc.SetTracer(tr, tr.NewTrack("iommu", "pwc"))
	if io.faultModeled() {
		// Registered only when the fault model is active so fault-free
		// traces keep their historical track metadata byte-for-byte
		// (SetFaultModel must run before SetTracer).
		io.trkFault = tr.NewTrack("iommu", "faults")
	}
	io.trackWalkers = true
}

// traceQueueDepth emits the pending-buffer and overflow-queue depths
// as one counter track. Callers hold io.tr non-nil.
func (io *IOMMU) traceQueueDepth() {
	io.tr.Counter(io.trkSched, "queue",
		obs.U64("buffer", uint64(io.sched.PendingLen())),
		obs.U64("overflow", uint64(len(io.preQueue))))
}

// Stats returns a snapshot of the accumulated statistics.
func (io *IOMMU) Stats() Stats { return io.stats }

// TLBStats returns the IOMMU L1 and L2 TLB statistics.
func (io *IOMMU) TLBStats() (l1, l2 tlb.Stats) { return io.l1.Stats(), io.l2.Stats() }

// PWCStats returns the page-walk-cache statistics.
func (io *IOMMU) PWCStats() pwc.Stats { return io.pwc.Stats() }

// Scheduler returns the scheduler in use.
func (io *IOMMU) Scheduler() core.IndexedScheduler { return io.sched }

// Pending returns buffered plus overflow requests (for tests).
func (io *IOMMU) Pending() int { return io.sched.PendingLen() + len(io.preQueue) }

// IdleWalkers returns the number of currently idle walkers.
func (io *IOMMU) IdleWalkers() int { return io.idleWalkers }

// ScheduleLog returns the recorded walk schedule (requires
// Config.RecordSchedule).
func (io *IOMMU) ScheduleLog() []WalkRecord { return io.schedule }

// Translate accepts a translation request from the GPU. The flow follows
// Section II-B's "life of a GPU address translation request", steps 5-9.
func (io *IOMMU) Translate(req TranslateReq) {
	io.stats.Requests++
	r := io.getRequest()
	r.Request = core.Request{VPN: req.VPN, Instr: req.Instr, Wavefront: req.Wavefront, CU: req.CU, Owner: r}
	r.done = req.Done
	io.eng.After(io.cfg.TransferLat+io.cfg.TLBLat, r.lookupFn)
}

// getRequest takes a record from the pool, or binds a fresh one's
// callbacks. The caller sets its core.Request and done; putRequest
// left done nil.
func (io *IOMMU) getRequest() *request {
	if n := len(io.reqPool); n > 0 {
		r := io.reqPool[n-1]
		io.reqPool = io.reqPool[:n-1]
		return r
	}
	if len(io.reqSlab) == 0 {
		io.reqSlab = make([]request, 64)
	}
	r := &io.reqSlab[0]
	io.reqSlab = io.reqSlab[1:]
	r.io = io
	r.lookupFn = r.lookupTLBs
	r.replyFn = r.deliver
	return r
}

// putRequest returns a finished record to the pool, dropping its
// requester's callback.
func (io *IOMMU) putRequest(r *request) {
	r.done = nil
	io.reqPool = append(io.reqPool, r)
}

func (r *request) lookupTLBs() {
	io := r.io
	if pfn, ok := io.l1.Lookup(r.VPN); ok {
		io.stats.L1Hits++
		io.reply(r, pfn)
		return
	}
	if pfn, ok := io.l2.Lookup(r.VPN); ok {
		io.stats.L2Hits++
		io.l1.Insert(r.VPN, pfn)
		io.reply(r, pfn)
		return
	}
	// Both IOMMU TLBs missed: the request becomes a pending walk
	// request (step 6), stamped with its arrival at the walk buffer.
	// Duplicate requests for one VPN stay distinct, as in the paper's
	// hardware.
	io.seq++
	r.Seq = io.seq
	r.Arrive = io.eng.Now()
	io.enqueueRequest(r, 0)
}

// reply sends pfn back to r's requester after the reply latency; r
// returns to the pool when the reply is delivered.
func (io *IOMMU) reply(r *request, pfn uint64) {
	r.pfn = pfn
	io.eng.After(io.cfg.ReplyLat, r.replyFn)
}

func (r *request) deliver() {
	done, pfn := r.done, r.pfn
	r.io.putRequest(r)
	done(pfn)
}

// enqueueRequest routes a new or retried request to an idle walker
// (the step 7 shortcut), the scheduler buffer, or the overflow queue,
// applying NACK/backoff backpressure when the overflow queue is bounded
// and full. attempt counts NACK retries for the backoff schedule.
func (io *IOMMU) enqueueRequest(r *request, attempt int) {
	if io.idleWalkers > 0 {
		io.nextRule = core.DecisionNone // direct start, no scheduler pick
		io.startWalk(r)
		return
	}
	// Admission is strictly FIFO: while older requests wait in the
	// overflow queue, a new arrival may not jump into the buffer even
	// if a slot is free. This keeps the scheduler-visible buffer in
	// arrival order, which the indexed schedulers' lazy aging relies
	// on (see core/index.go).
	if len(io.preQueue) == 0 && io.sched.PendingLen() < io.cfg.BufferEntries {
		io.admit(r)
		return
	}
	if max := io.cfg.OverflowEntries; max > 0 && len(io.preQueue) >= max {
		io.stats.OverflowNACKs++
		if tr := io.tr; tr != nil {
			tr.Instant(io.trkSched, "sched", "overflow-nack",
				obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
				obs.U64("attempt", uint64(attempt)))
		}
		io.eng.After(io.backoff(attempt), func() {
			// Re-stamp the arrival sequence: other requests were
			// admitted during the backoff, and the indexed schedulers
			// require monotone admission order.
			io.seq++
			r.Seq = io.seq
			io.enqueueRequest(r, attempt+1)
		})
		return
	}
	io.preQueue = append(io.preQueue, r)
	if len(io.preQueue) > io.stats.PreQueuePeak {
		io.stats.PreQueuePeak = len(io.preQueue)
	}
	if io.tr != nil {
		io.traceQueueDepth()
	}
}

// upperLevels returns how many page-table levels the PWC covers at the
// address space's page granularity.
func (io *IOMMU) upperLevels() int {
	if io.pageBits == mmu.LargePageBits {
		return mmu.Levels - 2
	}
	return mmu.Levels - 1
}

// admit scores a request (actions 1-a and 1-b of Figure 7) and hands
// it to the scheduler-visible buffer.
func (io *IOMMU) admit(r *request) {
	r.Est = io.pwc.ProbeN(io.vpn4k(r.VPN), io.upperLevels())
	if io.inj != nil {
		// Probe corruption only skews the scheduling score; the PWC's
		// protection counters were already adjusted by the real probe,
		// so the counter guard stays balanced.
		if est, corrupted := io.inj.CorruptEst(r.Est, io.upperLevels()+1); corrupted {
			r.Est = est
			if tr := io.tr; tr != nil {
				tr.Instant(io.trkFault, "fault", "probe-corrupt",
					obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
					obs.U64("est", uint64(est)))
			}
		}
	}
	io.sched.Admit(&r.Request)
	if n := io.sched.PendingLen(); n > io.stats.BufferPeak {
		io.stats.BufferPeak = n
	}
	if tr := io.tr; tr != nil {
		tr.Instant(io.trkSched, "sched", "admit",
			obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
			obs.U64("instr", uint64(r.Instr)), obs.U64("est", uint64(r.Est)),
			obs.U64("dsp", io.schedSeq))
		io.traceQueueDepth()
	}
}

// promoteOverflow moves overflow requests into the scheduling window,
// oldest first, while slots are free.
func (io *IOMMU) promoteOverflow() {
	for len(io.preQueue) > 0 && io.sched.PendingLen() < io.cfg.BufferEntries {
		r := io.preQueue[0]
		io.preQueue = io.preQueue[1:]
		io.admit(r)
	}
}

// walkerFreed is called when a walker finishes; it promotes overflow
// requests into the scheduling window and dispatches the next walk
// (action 2-a).
func (io *IOMMU) walkerFreed() {
	io.promoteOverflow()
	if io.sched.PendingLen() == 0 {
		return
	}
	// The scheduler removes its pick from the pending buffer.
	r := io.sched.Pick().Owner.(*request)
	if io.tr != nil {
		io.nextRule = io.sched.LastDecision()
	}
	// Refill the slot the pick just freed so the scheduler window
	// stays full while older overflow requests wait.
	io.promoteOverflow()
	io.startWalk(r)
}

// startWalk occupies a walker and runs the walk state machine: PWC
// lookup, then 1-4 dependent DRAM reads of page-table entries (2-b).
func (io *IOMMU) startWalk(r *request) {
	io.idleWalkers--
	if io.trackWalkers {
		r.walker = io.freeWalkers[len(io.freeWalkers)-1]
		r.start = io.eng.Now()
		io.freeWalkers = io.freeWalkers[:len(io.freeWalkers)-1]
	}
	io.stats.WalksStarted++
	io.stats.BufferWait.Add(float64(io.eng.Now() - r.Arrive))
	// Fault injection draws at dispatch: one kill decision per dispatch
	// keeps the decision stream deterministic, and a non-present flip
	// unmaps the leaf before the walk reads it.
	kill := false
	if io.inj != nil {
		kill = io.inj.KillWalker()
		if io.inj.FaultWalk() {
			io.pt.SetPresent(io.vpn4k(r.VPN), false)
		}
	}
	io.schedSeq++
	io.noteScheduled(r)
	if tr := io.tr; tr != nil {
		rule := "direct"
		if io.nextRule != core.DecisionNone {
			rule = io.nextRule.String()
		}
		tr.Instant(io.trkSched, "sched", "dispatch",
			obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
			obs.U64("instr", uint64(r.Instr)), obs.U64("dsp", io.schedSeq),
			obs.Str("rule", rule))
		switch io.nextRule {
		case core.DecisionAging:
			tr.Instant(io.trkSched, "sched", "aging-promotion",
				obs.U64("seq", r.Seq), obs.U64("instr", uint64(r.Instr)))
		case core.DecisionBatch:
			tr.Instant(io.trkSched, "sched", "batch-hit",
				obs.U64("seq", r.Seq), obs.U64("instr", uint64(r.Instr)))
		}
		io.traceQueueDepth()
	}

	w := io.getWalk(r)
	if kill {
		w.killAfter = 1 // the walker dies after its first PTE read
	}
	io.eng.After(io.cfg.PWCLat, w.beginFn)
}

// vpn4k converts a request VPN (at the address space's page
// granularity) to a 4 KB-granular VPN for page-table walking and PWC
// tagging.
func (io *IOMMU) vpn4k(vpn uint64) uint64 {
	if io.pageBits > mmu.PageBits {
		return vpn << (io.pageBits - mmu.PageBits)
	}
	return vpn
}

// walkState tracks one in-flight walk through its dependent PTE reads,
// including fault discovery and injected walker death. States are
// pooled (getWalk/putWalk): the callback closures are bound once at
// construction and the PTE addresses live in the inline buf array, so
// a steady-state walk performs no allocations at all.
type walkState struct {
	io        *IOMMU
	r         *request
	addrs     []uint64 // remaining PTE reads (slice into buf)
	buf       [mmu.Levels]uint64
	total     int  // reads a full walk performs
	done      int  // reads completed so far
	faulted   bool // the final read finds a non-present PTE
	killAfter int  // abort after this many reads (-1 = never)

	beginFn func() // bound w.begin: PWC-latency callback
	stepFn  func() // bound w.step: per-PTE-read completion callback
	retryFn func() // bound retry: re-issue after a DRAM NACK
}

// getWalk takes a walkState from the pool (or builds one with its
// closures pre-bound) and resets it for request r.
func (io *IOMMU) getWalk(r *request) *walkState {
	var w *walkState
	if n := len(io.walkPool); n > 0 {
		w = io.walkPool[n-1]
		io.walkPool = io.walkPool[:n-1]
	} else {
		w = &walkState{io: io}
		w.beginFn = w.begin
		w.stepFn = w.step
		w.retryFn = func() { w.io.issueWalkAccess(w) }
	}
	w.r = r
	w.addrs = nil
	w.total = 0
	w.done = 0
	w.faulted = false
	w.killAfter = -1
	return w
}

// putWalk returns a terminal walkState to the pool. Callers must have
// captured every field they still need: the state may be reissued to a
// new walk before the caller's next statement runs (finishWalk can
// start the next walk synchronously).
func (io *IOMMU) putWalk(w *walkState) {
	w.r = nil
	w.addrs = nil
	io.walkPool = append(io.walkPool, w)
}

// begin runs after the PWC-lookup latency: it resolves the walk's PTE
// read list (into the state's inline buffer), consults the PWC for how
// many reads remain, and starts the read chain.
func (w *walkState) begin() {
	io := w.io
	vpn4k := io.vpn4k(w.r.VPN)
	path, faulted := io.pt.WalkPathFaultInto(vpn4k, w.buf[:0])
	n := io.pwc.LookupN(vpn4k, len(path)-1)
	if n < 1 || n > len(path) {
		panic("iommu: PWC returned invalid access count")
	}
	w.addrs = path[len(path)-n:]
	w.total = n
	w.faulted = faulted
	io.issueWalkAccess(w)
}

// step is the completion callback of one PTE read.
func (w *walkState) step() {
	w.done++
	w.addrs = w.addrs[1:]
	w.io.issueWalkAccess(w)
}

// issueWalkAccess performs the remaining PTE reads sequentially; each
// read depends on the previous one's result, as in a real radix walk.
// Between reads it honours an injected walker kill, and after the last
// read it routes a non-present leaf to the page-fault path.
func (io *IOMMU) issueWalkAccess(w *walkState) {
	if w.killAfter >= 0 && w.done >= w.killAfter {
		r, wasted := w.r, w.done
		io.putWalk(w)
		io.abortWalk(r, wasted)
		return
	}
	if len(w.addrs) == 0 {
		r, total, done, faulted := w.r, w.total, w.done, w.faulted
		io.putWalk(w)
		if faulted {
			io.pageFault(r, done)
			return
		}
		io.finishWalk(r, total)
		return
	}
	ok := io.dram(w.addrs[0], w.stepFn)
	if !ok {
		d := io.cfg.RetryDelay
		if d == 0 {
			d = 8
		}
		io.eng.After(d, w.retryFn)
	}
}

// releaseWalker returns r's walker identity to the free pool (the idle
// counter and busy integral stay with the caller), closing the walk
// trace span under the given outcome and logging completed walks in
// the schedule log.
func (io *IOMMU) releaseWalker(r *request, outcome string, accesses int) {
	if !io.trackWalkers {
		return
	}
	io.freeWalkers = append(io.freeWalkers, r.walker)
	if tr := io.tr; tr != nil {
		tr.Span(io.trkWalker[r.walker], "walk", outcome, r.start, io.eng.Now(),
			obs.U64("vpn", r.VPN), obs.U64("instr", uint64(r.Instr)),
			obs.U64("accesses", uint64(accesses)))
	}
	if io.cfg.RecordSchedule && outcome == "walk" {
		limit := io.cfg.RecordLimit
		if limit == 0 {
			limit = 4096
		}
		if len(io.schedule) < limit {
			io.schedule = append(io.schedule, WalkRecord{
				Walker: r.walker,
				Start:  r.start,
				End:    io.eng.Now(),
				Instr:  r.Instr,
				VPN:    r.VPN,
			})
		}
	}
}

// finishWalk completes a walk: fills PWC and IOMMU TLBs, replies to the
// GPU, frees the walker (step 9).
func (io *IOMMU) finishWalk(r *request, accesses int) {
	vpn4k := io.vpn4k(r.VPN)
	pfn, pageBits, ok := io.pt.TranslateAny(vpn4k)
	if !ok {
		// The mapping vanished between this walk's PTE reads and its
		// completion (injection can unmap a VPN under a concurrent
		// duplicate walk): treat it as a fault discovered at the end
		// of the walk. Without a fault model this stays fatal.
		io.pageFault(r, accesses)
		return
	}
	io.releaseWalker(r, "walk", accesses)
	upper := mmu.Levels - 1 // 4 KB leaf: PML4, PDPT, PD cacheable
	if pageBits == mmu.LargePageBits {
		upper = mmu.Levels - 2 // 2 MB leaf: only PML4, PDPT cacheable
	}
	io.pwc.FillN(vpn4k, upper)
	io.l2.Insert(r.VPN, pfn)
	io.l1.Insert(r.VPN, pfn)

	io.stats.WalksDone++
	io.stats.WalkAccessHist[accesses]++
	lat := uint64(io.eng.Now() - r.Arrive)
	io.stats.WalkLatency.Add(float64(lat))
	io.stats.WalkLatencyQ.Observe(lat)
	io.noteCompleted(r, accesses, lat)
	if tr := io.tr; tr != nil {
		tr.Instant(io.trkSched, "sched", "complete",
			obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
			obs.U64("instr", uint64(r.Instr)), obs.U64("lat", lat),
			obs.U64("accesses", uint64(accesses)))
	}

	io.reply(r, pfn)

	io.idleWalkers++
	io.walkerFreed()
}

func (io *IOMMU) instr(id core.InstrID) *instrInfo {
	if n := int(id) + 1; n > len(io.instrs) {
		io.instrs = append(io.instrs, make([]instrInfo, n-len(io.instrs))...)
	}
	return &io.instrs[id]
}

func (io *IOMMU) noteScheduled(r *request) {
	in := io.instr(r.Instr)
	if in.schedCount == 0 {
		in.firstSchedSeq = io.schedSeq
	}
	in.lastSchedSeq = io.schedSeq
	in.schedCount++
}

func (io *IOMMU) noteCompleted(r *request, accesses int, lat uint64) {
	in := io.instr(r.Instr)
	in.walks++
	in.accesses += accesses
	if in.completions == 0 {
		in.firstDoneLat = lat
	}
	in.lastDoneLat = lat
	in.completions++
}

// InstrSummary computes the per-instruction aggregates after a run.
func (io *IOMMU) InstrSummary() InstrSummary {
	s := InstrSummary{AccessHist: stats.PaperFig3Buckets()}
	var firstSum, lastSum float64
	for i := range io.instrs {
		in := &io.instrs[i]
		if in.walks == 0 {
			continue
		}
		s.AccessHist.Observe(uint64(in.accesses))
		if in.walks < 2 {
			continue
		}
		s.Multi++
		if in.lastSchedSeq-in.firstSchedSeq+1 > in.schedCount {
			s.Interleaved++
		}
		firstSum += float64(in.firstDoneLat)
		lastSum += float64(in.lastDoneLat)
	}
	if s.Multi > 0 {
		s.MeanFirstLat = firstSum / float64(s.Multi)
		s.MeanLastLat = lastSum / float64(s.Multi)
	}
	return s
}
