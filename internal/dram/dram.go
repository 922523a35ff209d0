// Package dram models a DDR3-style main memory: channels, ranks, banks,
// row buffers and an FR-FCFS (first-ready, first-come-first-serve) memory
// controller per channel.
//
// The model is deliberately first-order: each access occupies its bank
// for a latency determined by the row-buffer state (hit, closed-row miss,
// or conflict with an open row), and the channel data bus serializes
// bursts. That is enough to reproduce the effects the paper depends on —
// page-table walks are dependent chains of DRAM reads whose latency
// varies with locality and with contention from data traffic.
//
// All timings are expressed in GPU core cycles (see internal/sim). The
// baseline converts DDR3-1600 11-11-11 timings at the 800 MHz command
// clock into 2 GHz GPU cycles (1 DRAM cycle = 2.5 GPU cycles).
package dram

import (
	"fmt"

	"gpuwalk/internal/obs"
	"gpuwalk/internal/sim"
	"gpuwalk/internal/stats"
)

// Config describes the memory organization and timing.
type Config struct {
	Channels     int    // independent channels, each with its own controller
	RanksPerChan int    // ranks per channel
	BanksPerRank int    // banks per rank
	RowBytes     uint64 // row-buffer size per bank
	LineBytes    uint64 // interleave granularity (cache line)

	// Timings in GPU cycles.
	TRCD   uint64 // activate -> column command
	TCAS   uint64 // column command -> first data
	TRP    uint64 // precharge
	TBurst uint64 // data-bus occupancy of one line transfer
	TCtrl  uint64 // fixed controller/PHY overhead per access

	// SchedWindow bounds how many of the oldest queued requests the
	// FR-FCFS scheduler considers when picking the next command, like a
	// real controller's finite scheduling window. The queue itself is
	// unbounded (the on-chip fabric applies backpressure in hardware;
	// modeling it as a queue keeps the simulator free of retry polling).
	// 0 means consider the whole queue.
	SchedWindow int
}

// DefaultConfig returns the Table I baseline: DDR3-1600 (800 MHz), two
// channels, two ranks per channel, 16 banks per rank, converted to 2 GHz
// GPU cycles (factor 2.5, rounded).
func DefaultConfig() Config {
	return Config{
		Channels:     2,
		RanksPerChan: 2,
		BanksPerRank: 16,
		RowBytes:     8 << 10,
		LineBytes:    64,
		TRCD:         28, // 11 DRAM cycles ≈ 27.5 GPU cycles
		TCAS:         28,
		TRP:          28,
		TBurst:       10, // BL8 at 800 MHz DDR = 4 command cycles
		TCtrl:        20,
		SchedWindow:  64,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: Channels must be positive, got %d", c.Channels)
	case c.RanksPerChan <= 0:
		return fmt.Errorf("dram: RanksPerChan must be positive, got %d", c.RanksPerChan)
	case c.BanksPerRank <= 0:
		return fmt.Errorf("dram: BanksPerRank must be positive, got %d", c.BanksPerRank)
	case c.RowBytes == 0 || c.RowBytes%c.LineBytes != 0:
		return fmt.Errorf("dram: RowBytes (%d) must be a positive multiple of LineBytes (%d)", c.RowBytes, c.LineBytes)
	case c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("dram: LineBytes must be a power of two, got %d", c.LineBytes)
	case c.TBurst == 0:
		return fmt.Errorf("dram: TBurst must be positive")
	}
	return nil
}

// Stats aggregates controller activity across all channels.
type Stats struct {
	Reads        uint64
	PrioReads    uint64 // page-walk reads served with priority
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64     // closed row: activate needed
	RowConflicts uint64     // other row open: precharge + activate
	QueueLat     stats.Mean // cycles from enqueue to issue
	ServiceLat   stats.Mean // cycles from enqueue to completion
	MaxQueue     int
}

// request is one pending memory access.
type request struct {
	bank   int // flat bank index within the channel
	row    uint64
	write  bool
	prio   bool // translation-critical (page-walk) traffic
	arrive sim.Cycle
	done   func()
}

// bank tracks one DRAM bank's row buffer.
type bank struct {
	openRow uint64
	hasOpen bool
	readyAt sim.Cycle
}

// channel is one memory channel with its own FR-FCFS controller.
type channel struct {
	mem       *Memory
	idx       int
	queue     []request
	banks     []bank
	busFreeAt sim.Cycle
	tickAt    sim.Cycle // cycle of the pending tick event, valid if tickSet
	tickSet   bool
	tickFn    func() // bound runTick, so scheduling a tick allocates nothing

	// startAt is the earliest cycle at which any window request could
	// start (the window's minimum of max(bank.readyAt, busFreeAt)), or 0
	// when unknown. tick stores it after its issue loop and access
	// resets it. The window, the banks and the bus change only in
	// access and in issue, which runs only inside that loop, so a
	// nonzero startAt is exact.
	startAt sim.Cycle
}

// Memory is the full DRAM system.
type Memory struct {
	cfg      Config
	eng      *sim.Engine
	channels []channel
	stats    Stats

	// Same-cycle completion batching: batch is the most recently pushed
	// completion event, still open for merging while batchAt matches the
	// target cycle and the engine's Sequence() is still batchSeq (the
	// witness that nothing else was scheduled since the batch event was
	// pushed — see scheduleDone). batchPool recycles batch objects so
	// steady-state completions allocate nothing.
	batch     *completionBatch
	batchAt   sim.Cycle
	batchSeq  uint64
	batchPool []*completionBatch

	tr     *obs.Tracer // nil unless tracing; see SetTracer
	trkCh  []obs.Track
	qNames []string // per-channel counter-series names
}

// completionBatch is one engine event carrying the completion callbacks
// of every access finishing on the same cycle that could be merged
// without reordering. run is bound once at construction so scheduling a
// batch allocates no closure.
type completionBatch struct {
	mem *Memory
	fns []func()
	run func()
}

// New builds a Memory on the given engine. It panics on invalid config;
// use Config.Validate for graceful checking.
func New(eng *sim.Engine, cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{cfg: cfg, eng: eng}
	m.channels = make([]channel, cfg.Channels)
	banksPerChan := cfg.RanksPerChan * cfg.BanksPerRank
	for i := range m.channels {
		c := &m.channels[i]
		c.mem = m
		c.idx = i
		c.banks = make([]bank, banksPerChan)
		c.tickFn = c.runTick
	}
	return m
}

// SetTracer attaches an event tracer: one thread per channel under a
// "dram" process, carrying the access spans and a queue-depth counter
// (named per channel, since Chrome aggregates counters by name within
// a process). When tracing is off every hook costs one nil check.
func (m *Memory) SetTracer(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	m.tr = tr
	m.trkCh = make([]obs.Track, m.cfg.Channels)
	m.qNames = make([]string, m.cfg.Channels)
	for i := range m.trkCh {
		m.trkCh[i] = tr.NewTrack("dram", fmt.Sprintf("chan%d", i))
		m.qNames[i] = fmt.Sprintf("queue%d", i)
	}
}

// traceQueue emits channel c's queue depth. Callers hold m.tr non-nil.
func (m *Memory) traceQueue(c *channel) {
	m.tr.Counter(m.trkCh[c.idx], m.qNames[c.idx],
		obs.U64("pending", uint64(len(c.queue))))
}

// Stats returns a snapshot of accumulated statistics.
func (m *Memory) Stats() Stats { return m.stats }

// decode maps a physical address to (channel, flat bank, row).
func (m *Memory) decode(addr uint64) (ch, bk int, row uint64) {
	block := addr / m.cfg.LineBytes
	ch = int(block % uint64(m.cfg.Channels))
	rest := block / uint64(m.cfg.Channels)
	banksPerChan := uint64(m.cfg.RanksPerChan * m.cfg.BanksPerRank)
	bk = int(rest % banksPerChan)
	rest /= banksPerChan
	colsPerRow := m.cfg.RowBytes / m.cfg.LineBytes
	row = rest / colsPerRow
	return
}

// Pending returns the total number of queued (not yet issued) requests.
func (m *Memory) Pending() int {
	n := 0
	for i := range m.channels {
		n += len(m.channels[i].queue)
	}
	return n
}

// Access enqueues a read (write=false) or write of the line containing
// addr. done is invoked at the completion cycle. Access always accepts
// (the queue is unbounded; see Config.SchedWindow) and returns true, so
// it satisfies the cache.AccessFn contract.
func (m *Memory) Access(addr uint64, write bool, done func()) bool {
	return m.access(addr, write, false, done)
}

// AccessPrio enqueues a translation-critical read (page-walk traffic).
// The controller services priority requests ahead of ordinary data
// traffic, as translation requests cannot be overlapped with the data
// accesses that depend on them. done is invoked at completion.
func (m *Memory) AccessPrio(addr uint64, done func()) bool {
	return m.access(addr, false, true, done)
}

func (m *Memory) access(addr uint64, write, prio bool, done func()) bool {
	ch, bk, row := m.decode(addr)
	c := &m.channels[ch]
	c.queue = append(c.queue, request{
		bank: bk, row: row, write: write, prio: prio,
		arrive: m.eng.Now(), done: done,
	})
	if len(c.queue) > m.stats.MaxQueue {
		m.stats.MaxQueue = len(c.queue)
	}
	if m.tr != nil {
		m.traceQueue(c)
	}
	c.startAt = 0
	c.scheduleTick(m.eng.Now())
	return true
}

// scheduleTick ensures the channel will attempt to issue at cycle at (or
// earlier if a tick is already pending sooner).
func (c *channel) scheduleTick(at sim.Cycle) {
	if c.tickSet && c.tickAt <= at {
		return
	}
	c.tickAt = at
	c.tickSet = true
	c.mem.eng.At(at, c.tickFn)
}

// runTick is the scheduled tick callback. Only the most recently
// scheduled tick is live; a stale one (tickAt moved) still runs tick,
// which costs O(1) when nothing can start yet but re-arms all the same,
// so duplicate ticks never collapse while the queue is non-empty.
func (c *channel) runTick() {
	c.tickSet = false
	c.tick()
}

// tick issues as many requests as can start now, then reschedules for the
// earliest future readiness.
func (c *channel) tick() {
	now := c.mem.eng.Now()
	if c.startAt > now {
		// pick would fail: it is the same readiness test, on the same
		// state the rescan that stored startAt saw.
		c.scheduleTick(c.startAt)
		return
	}
	for {
		idx, ok := c.pick(now)
		if !ok {
			break
		}
		c.issue(idx, now)
	}
	if len(c.queue) == 0 {
		c.startAt = 0
		return
	}
	// Earliest cycle at which any window request could start; pick has
	// failed, so it lies after now.
	next := sim.Cycle(^uint64(0))
	for i := 0; i < c.window(); i++ {
		t := c.banks[c.queue[i].bank].readyAt
		if c.busFreeAt > t {
			t = c.busFreeAt
		}
		if t < next {
			next = t
		}
	}
	c.startAt = next
	c.scheduleTick(next)
}

// window returns how many of the oldest queued requests the scheduler
// may consider.
func (c *channel) window() int {
	w := c.mem.cfg.SchedWindow
	if w <= 0 || w > len(c.queue) {
		return len(c.queue)
	}
	return w
}

// pick selects the next request to issue at cycle now using FR-FCFS
// within the scheduling window: among requests whose bank and the bus
// are ready, prefer row hits, oldest first; otherwise the oldest ready
// request. Returns ok=false if nothing can start now.
func (c *channel) pick(now sim.Cycle) (int, bool) {
	if c.busFreeAt > now {
		return 0, false
	}
	// Four FR-FCFS classes, best first: priority row-hit, priority,
	// ordinary row-hit, ordinary. Queue order is arrival order, so the
	// first match in each class is the oldest.
	prioHit, prioAny, hit, any := -1, -1, -1, -1
	for i := 0; i < c.window(); i++ {
		r := &c.queue[i]
		b := &c.banks[r.bank]
		if b.readyAt > now {
			continue
		}
		rowHit := b.hasOpen && b.openRow == r.row
		switch {
		case r.prio && rowHit && prioHit == -1:
			prioHit = i
		case r.prio && prioAny == -1:
			prioAny = i
		case !r.prio && rowHit && hit == -1:
			hit = i
		case !r.prio && any == -1:
			any = i
		}
	}
	for _, i := range [...]int{prioHit, prioAny, hit, any} {
		if i >= 0 {
			return i, true
		}
	}
	return 0, false
}

// issue starts servicing queue[idx] at cycle now.
func (c *channel) issue(idx int, now sim.Cycle) {
	r := c.queue[idx]
	c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
	b := &c.banks[r.bank]
	cfg := &c.mem.cfg
	st := &c.mem.stats

	var lat uint64
	var rowState string
	switch {
	case b.hasOpen && b.openRow == r.row:
		st.RowHits++
		lat = cfg.TCAS + cfg.TBurst
		rowState = "hit"
	case !b.hasOpen:
		st.RowMisses++
		lat = cfg.TRCD + cfg.TCAS + cfg.TBurst
		rowState = "miss"
	default:
		st.RowConflicts++
		lat = cfg.TRP + cfg.TRCD + cfg.TCAS + cfg.TBurst
		rowState = "conflict"
	}
	lat += cfg.TCtrl
	if r.write {
		st.Writes++
	} else {
		st.Reads++
		if r.prio {
			st.PrioReads++
		}
	}
	st.QueueLat.Add(float64(now - r.arrive))

	b.hasOpen = true
	b.openRow = r.row
	doneAt := now + sim.Cycle(lat)
	b.readyAt = doneAt
	// The burst occupies the shared data bus at the tail of the access.
	c.busFreeAt = now + sim.Cycle(cfg.TBurst)

	st.ServiceLat.Add(float64(doneAt - r.arrive))
	if tr := c.mem.tr; tr != nil {
		kind := "read"
		if r.write {
			kind = "write"
		}
		prio := uint64(0)
		if r.prio {
			prio = 1
		}
		tr.Span(c.mem.trkCh[c.idx], "dram", "access", now, doneAt,
			obs.U64("bank", uint64(r.bank)), obs.Str("row", rowState),
			obs.Str("kind", kind), obs.U64("prio", prio))
		c.mem.traceQueue(c)
	}
	c.mem.scheduleDone(doneAt, r.done)
}

// scheduleDone arranges for done to be invoked at cycle at. Completions
// landing on the same cycle are coalesced into one engine event when —
// and only when — nothing else has been scheduled since that event was
// pushed (the engine's Sequence() is unchanged). Under that condition
// the merge provably preserves dispatch order: scheduled separately,
// the new completion would receive the very next sequence number and so
// dispatch immediately after the batch event with no other event able
// to land between them; appending it to the batch runs it in exactly
// that position. A nil done still schedules (or joins) the event, since
// the pending completion is what keeps the engine alive to that cycle.
func (m *Memory) scheduleDone(at sim.Cycle, done func()) {
	if m.batch != nil && m.batchAt == at && m.eng.Sequence() == m.batchSeq {
		m.batch.fns = append(m.batch.fns, done)
		return
	}
	b := m.getBatch()
	b.fns = append(b.fns, done)
	m.batch = b
	m.batchAt = at
	m.eng.At(at, b.run)
	m.batchSeq = m.eng.Sequence()
}

// getBatch takes a completion batch from the pool, or builds one with
// its run closure pre-bound.
func (m *Memory) getBatch() *completionBatch {
	if n := len(m.batchPool); n > 0 {
		b := m.batchPool[n-1]
		m.batchPool = m.batchPool[:n-1]
		return b
	}
	b := &completionBatch{mem: m}
	b.run = func() {
		mem := b.mem
		// Close the batch before running callbacks: a callback may issue
		// new accesses completing this same cycle, and those must go into
		// a fresh (not yet dispatched) event.
		if mem.batch == b {
			mem.batch = nil
		}
		fns := b.fns
		for i, fn := range fns {
			fns[i] = nil // release for GC before reuse
			if fn != nil {
				fn()
			}
		}
		b.fns = fns[:0]
		mem.batchPool = append(mem.batchPool, b)
	}
	return b
}
