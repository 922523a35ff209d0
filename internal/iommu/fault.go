package iommu

import (
	"fmt"
	"io"

	"gpuwalk/internal/faultinject"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/sim"
)

// This file is the IOMMU's page-fault path: the PRI-style loop a real
// IOMMU runs when a walk reaches a non-present PTE. Instead of
// panicking, the faulting walk frees its walker, joins a bounded fault
// queue, waits for one of a limited number of OS service slots to
// reinstate the mapping, and then retries through the scheduler like a
// fresh arrival. Bounded queues NACK when full and the rejected request
// retries with exponential backoff, so nothing grows without limit.
//
// The model is inert unless SetFaultModel attaches a handler or an
// injector: fault-free runs take none of these paths and produce
// byte-identical traces to a build without the fault model.

// Fault-model defaults, substituted for zero-valued FaultConfig fields.
const (
	// DefaultFaultQueueEntries bounds the page-request queue.
	DefaultFaultQueueEntries = 64
	// DefaultFaultServiceSlots is the number of concurrent OS services.
	DefaultFaultServiceSlots = 1
	// DefaultFaultServiceLat is the base OS fault-service latency.
	DefaultFaultServiceLat = 2000
	// DefaultNACKBackoff is the base delay before retrying a NACKed
	// enqueue on a full bounded queue.
	DefaultNACKBackoff = 64
)

// FaultConfig models the OS page-fault service path: a bounded
// page-request queue (the PRI queue analogue) drained by a limited
// number of service slots, each taking a base latency plus optional
// deterministic jitter. The zero value takes every default.
type FaultConfig struct {
	// QueueEntries bounds the fault queue (0 = DefaultFaultQueueEntries).
	// A fault arriving at a full queue is NACKed and retried with
	// backoff, like a PRI queue overflow.
	QueueEntries int
	// ServiceSlots is how many faults the OS services concurrently
	// (0 = DefaultFaultServiceSlots).
	ServiceSlots int
	// ServiceLat is the base cycles one fault service takes
	// (0 = DefaultFaultServiceLat).
	ServiceLat uint64
	// ServiceJitter adds a deterministic per-fault extra latency in
	// [0, ServiceJitter), hashed from the fault's VPN and sequence so
	// runs stay reproducible. 0 disables.
	ServiceJitter uint64
	// RetryBackoff is the base delay before retrying a NACKed enqueue;
	// it doubles per attempt up to 64x (0 = DefaultNACKBackoff).
	RetryBackoff uint64
}

// Validate reports configuration errors.
func (c FaultConfig) Validate() error {
	if c.QueueEntries < 0 {
		return fmt.Errorf("iommu: fault QueueEntries must be >= 0, got %d", c.QueueEntries)
	}
	if c.ServiceSlots < 0 {
		return fmt.Errorf("iommu: fault ServiceSlots must be >= 0, got %d", c.ServiceSlots)
	}
	return nil
}

func (c FaultConfig) queueEntries() int {
	if c.QueueEntries == 0 {
		return DefaultFaultQueueEntries
	}
	return c.QueueEntries
}

func (c FaultConfig) serviceSlots() int {
	if c.ServiceSlots == 0 {
		return DefaultFaultServiceSlots
	}
	return c.ServiceSlots
}

func (c FaultConfig) serviceLat() uint64 {
	if c.ServiceLat == 0 {
		return DefaultFaultServiceLat
	}
	return c.ServiceLat
}

func (c FaultConfig) retryBackoff() uint64 {
	if c.RetryBackoff == 0 {
		return DefaultNACKBackoff
	}
	return c.RetryBackoff
}

// FaultHandlerFn services one page fault: it makes the 4 KB-granular
// vpn present again (the OS paging the page back in) and reports
// whether it succeeded. Returning false is fatal — the simulator has
// no further recourse for an unmappable page.
type FaultHandlerFn func(vpn4k uint64) bool

// SetFaultModel attaches the OS page-fault handler and an optional
// fault injector. With either attached, a walk that reaches a
// non-present PTE parks in the fault queue instead of panicking.
// Injecting non-present faults (NonPresentRate > 0) without a handler
// panics at service time, since nothing can reinstate the mapping.
// Call before SetTracer so the fault track is registered.
func (u *IOMMU) SetFaultModel(handler FaultHandlerFn, inj *faultinject.Injector) {
	u.faultHandler = handler
	u.inj = inj
}

// faultModeled reports whether faults are survivable (handler or
// injector attached) rather than fatal.
func (io *IOMMU) faultModeled() bool {
	return io.faultHandler != nil || io.inj != nil
}

// FaultQueueLen returns queued plus in-service faults (for tests and
// the watchdog dump).
func (io *IOMMU) FaultQueueLen() int { return len(io.faultQ) + io.inService }

// backoff returns the NACK retry delay for the given attempt:
// exponential in the configured base, capped at 64x.
func (io *IOMMU) backoff(attempt int) uint64 {
	if attempt > 6 {
		attempt = 6
	}
	return io.cfg.Faults.retryBackoff() << attempt
}

// pageFault parks a walk whose final PTE read found the entry
// non-present: the walker is freed for other work and the request
// joins the fault queue to await OS service. Without an attached fault
// model an unmapped walk stays fatal, as demand paging is otherwise
// out of scope (the simulator premaps every page a workload touches).
func (io *IOMMU) pageFault(r *request, accesses int) {
	if !io.faultModeled() {
		panic(fmt.Sprintf("iommu: walk of unmapped vpn %#x", r.VPN))
	}
	io.releaseWalker(r, "walk-fault", accesses)
	io.idleWalkers++
	io.stats.Faults++
	r.faultAt = io.eng.Now()
	if tr := io.tr; tr != nil {
		tr.Instant(io.trkFault, "fault", "page-fault",
			obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
			obs.U64("instr", uint64(r.Instr)), obs.U64("reads", uint64(accesses)))
	}
	io.walkerFreed()
	io.enqueueFault(r, 0)
}

// enqueueFault adds r to the bounded fault queue, NACKing with backoff
// when it is full.
func (io *IOMMU) enqueueFault(r *request, attempt int) {
	if len(io.faultQ) >= io.cfg.Faults.queueEntries() {
		io.stats.FaultNACKs++
		if tr := io.tr; tr != nil {
			tr.Instant(io.trkFault, "fault", "fault-nack",
				obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
				obs.U64("attempt", uint64(attempt)))
		}
		io.eng.After(io.backoff(attempt), func() { io.enqueueFault(r, attempt+1) })
		return
	}
	io.faultQ = append(io.faultQ, r)
	if len(io.faultQ) > io.stats.FaultQueuePeak {
		io.stats.FaultQueuePeak = len(io.faultQ)
	}
	io.traceFaultDepth()
	io.pumpFaults()
}

// traceFaultDepth emits the fault-queue occupancy as a counter track.
func (io *IOMMU) traceFaultDepth() {
	if tr := io.tr; tr != nil {
		tr.Counter(io.trkFault, "faultq",
			obs.U64("queued", uint64(len(io.faultQ))),
			obs.U64("in-service", uint64(io.inService)))
	}
}

// pumpFaults starts OS fault services while service slots are free.
// Service latency is the configured base plus a deterministic
// per-fault jitter hash, so runs are reproducible without sharing an
// RNG stream with the rest of the model.
func (io *IOMMU) pumpFaults() {
	for io.inService < io.cfg.Faults.serviceSlots() && len(io.faultQ) > 0 {
		r := io.faultQ[0]
		io.faultQ = io.faultQ[1:]
		io.inService++
		lat := io.cfg.Faults.serviceLat()
		if j := io.cfg.Faults.ServiceJitter; j > 0 {
			h := (r.VPN ^ r.Seq*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
			lat += (h >> 33) % j
		}
		if tr := io.tr; tr != nil {
			tr.Span(io.trkFault, "fault", "service",
				io.eng.Now(), io.eng.Now()+sim.Cycle(lat),
				obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN))
		}
		io.eng.After(lat, func() { io.serviceDone(r) })
	}
}

// serviceDone completes one OS fault service: the handler reinstates
// the mapping and the request retries through the scheduler.
func (io *IOMMU) serviceDone(r *request) {
	io.inService--
	if io.faultHandler == nil || !io.faultHandler(io.vpn4k(r.VPN)) {
		panic(fmt.Sprintf("iommu: page fault on vpn %#x could not be serviced", r.VPN))
	}
	io.stats.FaultsServiced++
	io.stats.FaultWait.Add(float64(io.eng.Now() - r.faultAt))
	io.traceFaultDepth()
	io.retryWalk(r)
	io.pumpFaults()
}

// retryWalk re-enters a faulted or killed request into the translation
// pipeline. It takes a fresh arrival sequence — the indexed
// schedulers' FIFO-admission contract (core/index.go) requires
// monotone admission order, so a retry rejoins at the back of the
// arrival order — but keeps the original Arrive cycle so walk-latency
// statistics include the fault round trip. PWC protection counters
// stay balanced across retries: each re-admission re-probes and each
// re-dispatch re-looks-up in matched pairs.
func (io *IOMMU) retryWalk(r *request) {
	io.stats.WalkRetries++
	r.Retries++
	io.seq++
	r.Seq = io.seq
	if tr := io.tr; tr != nil {
		tr.Instant(io.trkFault, "fault", "retry",
			obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
			obs.U64("instr", uint64(r.Instr)), obs.U64("try", uint64(r.Retries)))
	}
	io.enqueueRequest(r, 0)
}

// abortWalk handles an injected walker death mid-walk: the wasted PTE
// reads are logged, the walker returns to the pool, and the request
// re-enters the pipeline with a fresh arrival position. The caller has
// already returned the walkState to the pool, so this takes the
// surviving fields directly.
func (io *IOMMU) abortWalk(r *request, wasted int) {
	io.releaseWalker(r, "walk-killed", wasted)
	io.idleWalkers++
	io.stats.WalkerKills++
	if tr := io.tr; tr != nil {
		tr.Instant(io.trkFault, "fault", "walker-kill",
			obs.U64("seq", r.Seq), obs.U64("vpn", r.VPN),
			obs.U64("instr", uint64(r.Instr)), obs.U64("wasted", uint64(wasted)))
	}
	io.walkerFreed()
	io.retryWalk(r)
}

// DumpState writes a human-readable snapshot of every queue, for the
// watchdog's no-progress diagnostic.
func (u *IOMMU) DumpState(w io.Writer) {
	s := u.stats
	fmt.Fprintf(w, "iommu: buffer=%d overflow=%d faultq=%d in-service=%d idle-walkers=%d/%d\n",
		u.sched.PendingLen(), len(u.preQueue), len(u.faultQ), u.inService,
		u.idleWalkers, u.cfg.Walkers)
	fmt.Fprintf(w, "iommu: started=%d done=%d faults=%d serviced=%d retries=%d kills=%d nacks{overflow=%d fault=%d}\n",
		s.WalksStarted, s.WalksDone, s.Faults, s.FaultsServiced,
		s.WalkRetries, s.WalkerKills, s.OverflowNACKs, s.FaultNACKs)
}
