package gpu

import (
	"slices"

	"gpuwalk/internal/cache"
	"gpuwalk/internal/core"
	"gpuwalk/internal/iommu"
	"gpuwalk/internal/mmu"
	"gpuwalk/internal/sim"
	"gpuwalk/internal/tlb"
	"gpuwalk/internal/workload"
)

// cu is one compute unit: private L1 TLB and L1 data cache, an issue
// port shared by its SIMD units, and its resident wavefronts.
type cu struct {
	sys *System
	id  int

	l1tlb *tlb.TLB
	l1c   *cache.Cache

	// readyQ holds wavefronts whose compute phase ended, awaiting the
	// 1-per-cycle issue slot; Config.WavefrontSched arbitrates.
	readyQ    []*wavefront
	tickArmed bool

	pending []*wavefront // waiting for a residency slot
	live    int          // activated, not yet retired

	// lsuFree counts the CU's free load-store slots (one per SIMD
	// unit). A memory instruction occupies a slot from issue until its
	// address translations complete; instructions beyond the limit wait
	// in lsuQueue. This bounds how many instructions per CU can have
	// translation traffic in flight, as the real coalescer/LSU does.
	lsuFree  int
	lsuQueue []*instrExec

	// execPool recycles the CU's instruction records (see instrExec).
	execPool []*instrExec
	// issueTickFn is c.issueTick, bound once.
	issueTickFn func()

	// computeInt tracks the number of wavefronts currently in their
	// compute phase. While the CU has live wavefronts and this count is
	// zero, every wavefront is blocked on memory: those are the paper's
	// "stall cycles" (Figure 9).
	computeInt sim.Integrator
}

func newCU(s *System, id int) *cu {
	c := &cu{
		sys:   s,
		id:    id,
		l1tlb: tlb.New(tlb.Config{Name: "gpu-l1tlb", Entries: s.cfg.L1TLBEntries}),
		// L1 misses go to the shared L2 cache.
		l1c: cache.New(s.eng, s.cfg.L1Cache, s.l2c.Access),
	}
	c.lsuFree = s.cfg.SIMDPerCU
	c.issueTickFn = c.issueTick
	return c
}

// start activates up to WavefrontsPerCU resident wavefronts.
func (c *cu) start() {
	if len(c.pending) == 0 {
		return
	}
	c.computeInt.Arm(c.sys.eng.Now())
	n := c.sys.cfg.WavefrontsPerCU
	for n > 0 && len(c.pending) > 0 {
		c.activateNext()
		n--
	}
}

// activateNext moves the next pending wavefront into execution.
func (c *cu) activateNext() {
	w := c.pending[0]
	c.pending = c.pending[1:]
	c.live++
	// Small deterministic stagger so wavefronts do not issue in
	// lockstep on cycle 0.
	stagger := w.gid % uint64(c.sys.cfg.WavefrontsPerCU)
	w.enterCompute(c.sys.cfg.ComputeGap/4 + stagger)
}

// wavefrontRetired is called when a wavefront finishes its stream.
func (c *cu) wavefrontRetired() {
	c.live--
	if len(c.pending) > 0 {
		c.activateNext()
		return
	}
	if c.live == 0 {
		c.computeInt.Disarm(c.sys.eng.Now())
	}
}

// wavefront executes one instruction stream in order: each memory
// instruction must fully complete (all translations, then all data
// accesses) before the next issues, matching SIMT lockstep semantics.
type wavefront struct {
	cu     *cu
	gid    uint64
	app    int
	instrs []workload.MemInstr
	pc     int

	readyFn func() // bound w.ready
}

// newWavefront builds wavefront gid of app, resident on c.
func newWavefront(c *cu, gid uint64, app int, instrs []workload.MemInstr) *wavefront {
	w := &wavefront{cu: c, gid: gid, app: app, instrs: instrs}
	w.readyFn = w.ready
	return w
}

// enterCompute puts the wavefront in its compute phase for gap cycles,
// then hands it to the CU's issue arbiter.
func (w *wavefront) enterCompute(gap uint64) {
	eng := w.cu.sys.eng
	w.cu.computeInt.Add(eng.Now(), 1)
	eng.After(gap, w.readyFn)
}

// ready ends the compute phase.
func (w *wavefront) ready() { w.cu.makeReady(w) }

// makeReady enqueues a compute-finished wavefront for issue and arms
// the 1-per-cycle issue tick.
func (c *cu) makeReady(w *wavefront) {
	c.readyQ = append(c.readyQ, w)
	if !c.tickArmed {
		c.tickArmed = true
		c.sys.eng.After(0, c.issueTickFn)
	}
}

// issueTick issues one ready wavefront per cycle, arbitrated by the
// configured wavefront scheduling policy.
func (c *cu) issueTick() {
	if len(c.readyQ) == 0 {
		c.tickArmed = false
		return
	}
	pick := 0
	switch c.sys.cfg.WavefrontSched {
	case WFOldest:
		for i := 1; i < len(c.readyQ); i++ {
			if c.readyQ[i].gid < c.readyQ[pick].gid {
				pick = i
			}
		}
	case WFYoungest:
		for i := 1; i < len(c.readyQ); i++ {
			if c.readyQ[i].gid > c.readyQ[pick].gid {
				pick = i
			}
		}
	default: // WFRoundRobin: ready (FIFO) order
	}
	w := c.readyQ[pick]
	c.readyQ = append(c.readyQ[:pick], c.readyQ[pick+1:]...)
	w.issue()
	if len(c.readyQ) > 0 {
		c.sys.eng.After(1, c.issueTickFn)
	} else {
		c.tickArmed = false
	}
}

// issue leaves the compute phase and either retires the wavefront or
// executes its next memory instruction.
func (w *wavefront) issue() {
	c := w.cu
	c.computeInt.Add(c.sys.eng.Now(), -1)
	if w.pc >= len(w.instrs) {
		c.wavefrontRetired()
		return
	}
	in := &w.instrs[w.pc]
	w.pc++
	c.execute(w, in)
}

// instrExec tracks one in-flight SIMD memory instruction: outstanding
// page translations, then outstanding line accesses. Records are pooled
// per CU: lineDone and every page's callbacks are bound once per record,
// and the page and line buffers keep their capacity, so a steady-state
// instruction allocates nothing. lineDone returns the record to its
// CU's pool after the instruction's last line; by then every callback
// it handed out has run.
type instrExec struct {
	c     *cu
	w     *wavefront
	id    core.InstrID
	write bool

	coalesced
	pfns         []uint64 // pfns[i] translates pages[i]
	xlates       []*xlate // xlates[i] carries pages[i]
	pendingPages int
	pendingLines int

	lineDoneFn func() // bound ex.lineDone
}

// xlate is one page of an instrExec on its way through the GPU TLBs
// and, when both miss, the IOMMU. Its callbacks are bound when the
// record's page buffer first grows to it.
type xlate struct {
	ex *instrExec
	i  int // index into ex.pages

	l1Fn    func()           // bound x.l1Lookup
	l2Fn    func()           // bound x.l2Lookup
	replyFn func(pfn uint64) // bound x.translated
}

// getExec takes an instruction record from the CU's pool, or builds one.
func (c *cu) getExec() *instrExec {
	if n := len(c.execPool); n > 0 {
		ex := c.execPool[n-1]
		c.execPool = c.execPool[:n-1]
		return ex
	}
	ex := &instrExec{c: c}
	ex.lineDoneFn = ex.lineDone
	return ex
}

// execute starts an instruction: coalesce lanes, then translate every
// unique page (step 1-3 of the paper's request lifecycle).
func (c *cu) execute(w *wavefront, in *workload.MemInstr) {
	s := c.sys
	s.instrSeq++
	ex := c.getExec()
	ex.w, ex.id, ex.write = w, core.InstrID(s.instrSeq), in.Write
	ex.coalesce(in.Lanes, s.cfg.PageBits, s.cfg.L1Cache.LineBytes)
	// The per-page buffers get room for a page per lane, so they grow
	// once, and new pages' records come in one block.
	n := len(ex.pages)
	ex.pfns = slices.Grow(ex.pfns[:0], len(in.Lanes))[:n]
	if k := len(ex.xlates); n > k {
		ex.xlates = slices.Grow(ex.xlates, len(in.Lanes)-k)
		block := make([]xlate, n-k)
		for i := range block {
			x := &block[i]
			x.ex, x.i = ex, k+i
			x.l1Fn, x.l2Fn, x.replyFn = x.l1Lookup, x.l2Lookup, x.translated
			ex.xlates = append(ex.xlates, x)
		}
	}
	ex.pendingPages, ex.pendingLines = n, len(ex.lines)
	if c.lsuFree == 0 {
		c.lsuQueue = append(c.lsuQueue, ex)
		return
	}
	c.lsuFree--
	c.beginTranslation(ex)
}

// beginTranslation starts an instruction's translation phase on an
// acquired LSU slot.
func (c *cu) beginTranslation(ex *instrExec) {
	for _, x := range ex.xlates[:len(ex.pages)] {
		c.translate(x)
	}
}

// lsuRelease frees an LSU slot and starts the next queued instruction.
func (c *cu) lsuRelease() {
	if len(c.lsuQueue) > 0 {
		ex := c.lsuQueue[0]
		c.lsuQueue = c.lsuQueue[1:]
		c.beginTranslation(ex)
		return
	}
	c.lsuFree++
}

// translate resolves one page through the GPU TLB hierarchy and, on a
// full miss, the IOMMU.
func (c *cu) translate(x *xlate) {
	s := c.sys
	s.translations++
	// A deterministic per-request jitter models MSHR allocation and
	// fabric arbitration on the miss path. It staggers the requests of
	// concurrently executing instructions so that independent streams
	// interleave at the shared L2 TLB and the IOMMU — the interleaving
	// the paper's Figure 5 measures — while keeping one instruction's
	// requests clustered relative to walker service time.
	jitter := uint64(0)
	if s.cfg.TranslateJitter > 1 {
		h := (x.vpn() ^ uint64(x.ex.id)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
		jitter = (h >> 48) % s.cfg.TranslateJitter
	}
	s.eng.After(s.cfg.L1TLBLat+jitter, x.l1Fn)
}

// vpn is the page x translates.
func (x *xlate) vpn() uint64 { return x.ex.pages[x.i] }

// l1Lookup runs after the L1 TLB latency.
func (x *xlate) l1Lookup() {
	c := x.ex.c
	if pfn, ok := c.l1tlb.Lookup(x.vpn()); ok {
		x.ex.pageDone(x.i, pfn)
		return
	}
	c.sys.l2TLBAccess(x)
}

// l2TLBAccess queues a lookup on the shared GPU L2 TLB.
func (s *System) l2TLBAccess(x *xlate) {
	at := s.l2tlbPort.Acquire(s.eng.Now())
	s.eng.At(at+sim.Cycle(s.cfg.L2TLBLat), x.l2Fn)
}

// l2Lookup runs when the shared L2 TLB's port and latency have passed.
// A miss goes to the IOMMU.
func (x *xlate) l2Lookup() {
	ex := x.ex
	s := ex.c.sys
	s.epoch.Access(ex.w.gid)
	vpn := x.vpn()
	if pfn, ok := s.l2tlb.Lookup(vpn); ok {
		ex.c.l1tlb.Insert(vpn, pfn)
		ex.pageDone(x.i, pfn)
		return
	}
	s.io.Translate(iommu.TranslateReq{
		VPN:       vpn,
		Instr:     ex.id,
		Wavefront: ex.w.gid,
		CU:        ex.c.id,
		Done:      x.replyFn,
	})
}

// translated receives the IOMMU's reply and fills both GPU TLBs.
func (x *xlate) translated(pfn uint64) {
	ex := x.ex
	vpn := x.vpn()
	ex.c.sys.l2tlb.Insert(vpn, pfn)
	ex.c.l1tlb.Insert(vpn, pfn)
	ex.pageDone(x.i, pfn)
}

// pageDone records the translation of pages[i]; when the last page of
// the instruction resolves, the data phase begins.
func (ex *instrExec) pageDone(i int, pfn uint64) {
	ex.pfns[i] = pfn
	ex.pendingPages--
	if ex.pendingPages == 0 {
		ex.c.lsuRelease()
		ex.dataPhase()
	}
}

// dataPhase issues the instruction's unique-line accesses to the data
// cache hierarchy using the translated physical addresses. The pfn is
// always a 4 KB frame number — the first frame of the page for 2 MB
// mappings, whose backing frames are physically contiguous — so the
// physical address is pfn<<12 plus the offset within the page.
func (ex *instrExec) dataPhase() {
	c := ex.c
	pageMask := uint64(1)<<c.sys.cfg.PageBits - 1
	for i, la := range ex.lines {
		pa := ex.pfns[ex.linePage[i]]<<mmu.PageBits | la&pageMask
		c.accessLine(ex, pa)
	}
}

// accessLine sends one line access to the L1 data cache, retrying if the
// cache cannot accept it (MSHRs full).
func (c *cu) accessLine(ex *instrExec, pa uint64) {
	ok := c.l1c.Access(pa, ex.write, ex.lineDoneFn)
	if !ok {
		c.sys.eng.After(c.sys.cfg.RetryDelay, func() { c.accessLine(ex, pa) })
	}
}

// lineDone records one completed line access; when the last line
// returns, the instruction completes, its record goes back to the pool
// and the wavefront re-enters its compute phase.
func (ex *instrExec) lineDone() {
	ex.pendingLines--
	if ex.pendingLines > 0 {
		return
	}
	c, w := ex.c, ex.w
	ex.w = nil
	c.execPool = append(c.execPool, ex)
	c.sys.noteInstrDone(w.app)
	w.enterCompute(c.sys.cfg.ComputeGap)
}
