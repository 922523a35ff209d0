// Package core implements the paper's primary contribution: scheduling
// policies for the IOMMU's pending page-table-walk buffer, including the
// SIMT-aware scheduler of Shin et al. (ISCA 2018).
//
// The IOMMU (internal/iommu) owns the walkers and hands pending walk
// requests to an IndexedScheduler at the two points the paper
// identifies (Figure 7):
//
//  1. when a new walk request arrives and no walker is free, the request
//     is scored and admitted (Admit), and
//  2. when a walker becomes free, the scheduler picks which pending
//     request to service next (Pick).
//
// New builds the indexed built-in policies (index.go). Custom policies
// implement the slice-based Scheduler interface and run through Adapt.
// The linear, O(n)-per-operation versions of the built-in policies live
// in linear_test.go as their executable specification.
package core

import (
	"fmt"

	"gpuwalk/internal/sim"
	"gpuwalk/internal/xrand"
)

// InstrID uniquely identifies one dynamic SIMD memory instruction. The
// paper attaches a 20-bit instruction ID to each walk request; we use 64
// bits since the simulator never recycles IDs.
type InstrID uint64

// Request is one pending page-table-walk request in the IOMMU buffer.
type Request struct {
	VPN       uint64    // virtual page number to translate
	Instr     InstrID   // issuing SIMD instruction
	Wavefront uint64    // issuing wavefront (for stats)
	CU        int       // issuing compute unit (for stats)
	Seq       uint64    // arrival order at the IOMMU buffer (FIFO ties)
	Arrive    sim.Cycle // arrival cycle at the IOMMU buffer

	// Est is this request's own PWC-probe estimate of walk memory
	// accesses (1..4), set by the IOMMU on arrival (action 1-a).
	Est int
	// Score estimates the total memory accesses needed to service all
	// pending walks of the issuing instruction (action 1-b). Shared by
	// every pending request of that instruction, and reduced as the
	// instruction's requests are dispatched: the paper defines it as the
	// sum over the instruction's *pending* requests.
	Score int

	// Retries counts re-admissions after a page fault or an injected
	// walker kill. Each retry re-stamps Seq (admission order must stay
	// monotone, see index.go) but keeps Arrive, so walk-latency stats
	// include the fault round trip.
	Retries int

	// Owner is the IOMMU's record of the request, which embeds this
	// Request; schedulers leave it alone.
	Owner any

	// Index bookkeeping (built-in schedulers only; see index.go).
	aprev, anext *Request // arrival-ordered pending list links
	gnext        *Request // per-instruction FIFO link
	agingBase    uint64   // dispatch-counter stamp for lazy aging
}

// Decision names the rule that produced a scheduling pick. Schedulers
// that implement DecisionReporter expose it so the observability layer
// can label each dispatch with the rule that won.
type Decision uint8

// Decision rules, in rough priority order across the built-in policies.
const (
	DecisionNone   Decision = iota
	DecisionFCFS            // oldest pending request
	DecisionRandom          // uniform random pick
	DecisionSJF             // lowest-score instruction
	DecisionBatch           // continue the last-scheduled instruction
	DecisionAging           // starvation avoidance fired
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionFCFS:
		return "fcfs"
	case DecisionRandom:
		return "random"
	case DecisionSJF:
		return "sjf"
	case DecisionBatch:
		return "batch"
	case DecisionAging:
		return "aging"
	}
	return "none"
}

// DecisionReporter is implemented by schedulers that can report which
// rule produced their most recent pick. Custom schedulers may omit it,
// in which case dispatch events are not labeled with a rule.
type DecisionReporter interface {
	LastDecision() Decision
}

// Scheduler is a custom policy written against the pending buffer as
// a slice, in arrival order. Adapt runs it in the IOMMU.
// Implementations are not safe for concurrent use; the simulator is
// single-threaded per system.
//
// The IOMMU pools its requests: a Request is recycled for a later
// arrival once it has been selected, its walk has finished and its
// reply has run. A policy (like an IndexedScheduler) must therefore not
// keep a *Request after it leaves the pending buffer, nor read one it
// kept from an earlier call.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// OnArrival is called after r has been appended to pending (so
	// pending includes r). Policies that score requests update state
	// here.
	OnArrival(r *Request, pending []*Request)
	// Select returns the index within pending of the request to service
	// next. It is only called with a non-empty pending slice. The
	// request is removed after Select returns.
	Select(pending []*Request) int
}

// Adapt runs a slice policy as an IndexedScheduler. Admit appends r to
// a pending slice kept in arrival order and then calls OnArrival; Pick
// calls Select and removes the chosen entry without reordering the
// rest. LastDecision forwards to s when it implements DecisionReporter
// and reports DecisionNone otherwise.
func Adapt(s Scheduler) IndexedScheduler { return &sliceScheduler{s: s} }

type sliceScheduler struct {
	s       Scheduler
	pending []*Request
}

func (a *sliceScheduler) Name() string { return a.s.Name() }

func (a *sliceScheduler) Admit(r *Request) {
	a.pending = append(a.pending, r)
	a.s.OnArrival(r, a.pending)
}

func (a *sliceScheduler) Pick() *Request {
	i := a.s.Select(a.pending)
	r := a.pending[i]
	a.pending = append(a.pending[:i], a.pending[i+1:]...)
	return r
}

func (a *sliceScheduler) PendingLen() int { return len(a.pending) }

func (a *sliceScheduler) LastDecision() Decision {
	if dr, ok := a.s.(DecisionReporter); ok {
		return dr.LastDecision()
	}
	return DecisionNone
}

// Kind names a built-in scheduling policy.
type Kind string

// Built-in policies.
const (
	KindFCFS      Kind = "fcfs"       // baseline: first-come-first-serve
	KindRandom    Kind = "random"     // naive random (the paper's strawman)
	KindSJF       Kind = "sjf"        // shortest-job-first only (ablation)
	KindBatch     Kind = "batch"      // same-instruction batching only (ablation)
	KindSIMTAware Kind = "simt-aware" // full proposal: SJF + batching + aging
)

// Kinds lists all built-in policies.
func Kinds() []Kind {
	return []Kind{KindFCFS, KindRandom, KindSJF, KindBatch, KindSIMTAware}
}

// Options configures scheduler construction.
type Options struct {
	// Seed drives the Random policy; ignored by deterministic policies.
	Seed uint64
	// AgingThreshold is the number of younger requests that may be
	// scheduled past a pending request before it is force-prioritized.
	// The paper uses two million on full-length gem5 runs; scaled runs
	// use a proportionally smaller default. Zero means DefaultAging.
	AgingThreshold uint64
}

// DefaultAging is the default starvation threshold for scaled runs.
const DefaultAging = 1 << 20

// New constructs a built-in scheduler. Each dispatches in the same
// order as its linear specification in linear_test.go.
func New(kind Kind, opt Options) (IndexedScheduler, error) {
	aging := opt.AgingThreshold
	if aging == 0 {
		aging = DefaultAging
	}
	switch kind {
	case KindFCFS:
		return &IndexedFIFO{}, nil
	case KindRandom:
		return &IndexedRandom{rng: xrand.New(opt.Seed)}, nil
	case KindSJF:
		return &IndexedSIMT{SJF: true, AgingThreshold: aging, name: string(KindSJF)}, nil
	case KindBatch:
		return &IndexedSIMT{Batching: true, AgingThreshold: aging, name: string(KindBatch)}, nil
	case KindSIMTAware:
		return &IndexedSIMT{SJF: true, Batching: true, AgingThreshold: aging, name: string(KindSIMTAware)}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler kind %q", kind)
	}
}
