package core

import "gpuwalk/internal/xrand"

// This file implements the indexed pending buffer behind every
// built-in policy. Instead of scanning the whole buffer on every
// arrival, selection and aging update — O(n) each, O(n²) per dispatch
// cycle, as the linear specifications in linear_test.go do — the index
// groups pending requests into per-instruction FIFOs, maintains a
// (score, oldest-seq) min-heap over the groups, and ages lazily from a
// global dispatch counter:
//
//	arrival (action 1-b)  O(log n)   fold Est into the group's running
//	                                 score, fix the group's heap slot
//	batching rule         O(1)       map lookup of the last instruction
//	SJF rule              O(log n)   heap minimum
//	aging rule            O(1)       arrival-list head vs. counter
//	removal               O(log n)   unlink + heap fix
//
// # FIFO-admission contract
//
// Admit must be called in strictly increasing Request.Seq order (the
// IOMMU guarantees this: overflow requests are promoted FIFO and new
// arrivals never jump the overflow queue). Two properties follow:
//
//  1. The arrival list and every per-instruction FIFO hold requests in
//     seq order, so "oldest pending of X" is always a list head.
//
//  2. Lazy aging is exact. The linear specification counts, for every
//     pending request, the younger requests dispatched past it
//     ("passed"). Under FIFO admission, passed is monotone
//     non-increasing along arrival order (an older pending request has
//     been admitted at least as long and every younger dispatch that
//     passed its successor also passed it), so the set of requests over
//     the aging threshold is always a prefix of the arrival list, and
//     the rule "oldest request with passed >= threshold" fires exactly
//     when the head does. For the head, passed equals
//     dispatches-since-admission minus the then-pending (all older)
//     requests, all of which have been dispatched by the time it is the
//     head; stamping agingBase = dispatches + pendingLen at admission
//     makes dispatches - agingBase the head's exact passed count.
type IndexedScheduler interface {
	DecisionReporter

	// Name identifies the policy in reports.
	Name() string
	// Admit adds r to the pending set (r.Est set by the caller; Seq
	// strictly greater than every previous Admit).
	Admit(r *Request)
	// Pick removes and returns the next request to service. It must
	// only be called when PendingLen() > 0. The caller recycles the
	// request later (see Scheduler), so no structure may keep it.
	Pick() *Request
	// PendingLen returns the number of pending requests.
	PendingLen() int
}

// reqList is the arrival-ordered pending list (intrusive, doubly
// linked through Request.aprev/anext).
type reqList struct {
	head, tail *Request
	n          int
}

func (l *reqList) pushBack(r *Request) {
	r.aprev, r.anext = l.tail, nil
	if l.tail != nil {
		l.tail.anext = r
	} else {
		l.head = r
	}
	l.tail = r
	l.n++
}

func (l *reqList) remove(r *Request) {
	if r.aprev != nil {
		r.aprev.anext = r.anext
	} else {
		l.head = r.anext
	}
	if r.anext != nil {
		r.anext.aprev = r.aprev
	} else {
		l.tail = r.aprev
	}
	r.aprev, r.anext = nil, nil
	l.n--
}

// instrGroup is one instruction's pending requests: a seq-ordered FIFO
// (via Request.gnext) plus the instruction's running score.
type instrGroup struct {
	head  *Request
	tail  *Request
	count int
	score int // sum of Est over the pending members
	hpos  int // slot in the owning groupHeap
}

func (g *instrGroup) push(r *Request) {
	r.gnext = nil
	if g.tail != nil {
		g.tail.gnext = r
	} else {
		g.head = r
	}
	g.tail = r
	g.count++
}

// popHead removes the group's oldest request. Groups only ever lose
// their head: every selection rule picks the oldest request of some
// instruction.
func (g *instrGroup) popHead() *Request {
	r := g.head
	g.head = r.gnext
	if g.head == nil {
		g.tail = nil
	}
	r.gnext = nil
	g.count--
	return r
}

// groupHeap is a binary min-heap of instruction groups keyed by
// (score, head.Seq): the heap minimum is the group owning the request
// the SJF rule selects.
type groupHeap []*instrGroup

func (h groupHeap) less(a, b *instrGroup) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.head.Seq < b.head.Seq
}

func (h *groupHeap) push(g *instrGroup) {
	g.hpos = len(*h)
	*h = append(*h, g)
	h.up(g.hpos)
}

// fix restores the heap property after g's key changed in place.
func (h *groupHeap) fix(g *instrGroup) {
	if !h.down(g.hpos) {
		h.up(g.hpos)
	}
}

// removeAt deletes the group at slot i.
func (h *groupHeap) removeAt(i int) {
	last := len(*h) - 1
	if i != last {
		h.swap(i, last)
	}
	(*h)[last].hpos = -1
	*h = (*h)[:last]
	if i != last {
		h.fix((*h)[i])
	}
}

func (h groupHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hpos, h[j].hpos = i, j
}

func (h groupHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h[i], h[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h groupHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && h.less(h[r], h[kid]) {
			kid = r
		}
		if !h.less(h[kid], h[i]) {
			break
		}
		h.swap(i, kid)
		i = kid
	}
	return i > start
}

// IndexedFIFO is the indexed FCFS scheduler: a plain arrival queue.
type IndexedFIFO struct {
	list reqList
}

// Name implements Scheduler.
func (s *IndexedFIFO) Name() string { return string(KindFCFS) }

// Admit implements IndexedScheduler.
func (s *IndexedFIFO) Admit(r *Request) { s.list.pushBack(r) }

// Pick implements IndexedScheduler: the oldest pending request.
func (s *IndexedFIFO) Pick() *Request {
	r := s.list.head
	s.list.remove(r)
	return r
}

// PendingLen implements IndexedScheduler.
func (s *IndexedFIFO) PendingLen() int { return s.list.n }

// LastDecision implements DecisionReporter: FCFS has only one rule.
func (s *IndexedFIFO) LastDecision() Decision { return DecisionFCFS }

// IndexedRandom is the indexed Random scheduler. Random is the paper's
// strawman: it needs uniform selection by buffer position, for which a
// slice is already optimal, so only removal bookkeeping lives here.
type IndexedRandom struct {
	rng     *xrand.Rand
	pending []*Request
}

// Name implements Scheduler.
func (s *IndexedRandom) Name() string { return string(KindRandom) }

// Admit implements IndexedScheduler.
func (s *IndexedRandom) Admit(r *Request) { s.pending = append(s.pending, r) }

// Pick implements IndexedScheduler: a uniformly random pending request,
// drawing the same stream as the linear Random for a given seed.
func (s *IndexedRandom) Pick() *Request {
	i := s.rng.Intn(len(s.pending))
	r := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	return r
}

// PendingLen implements IndexedScheduler.
func (s *IndexedRandom) PendingLen() int { return len(s.pending) }

// LastDecision implements DecisionReporter.
func (s *IndexedRandom) LastDecision() Decision { return DecisionRandom }

// IndexedSIMT is the paper's scheduler: with both SJF and Batching set
// it is the full proposal, with only one set the corresponding
// ablation.
//
// Scoring (Admit): the new request's PWC estimate is added to the
// running score of its instruction, which every pending request of that
// instruction shares; a dispatch subtracts its estimate again, so a
// score is the sum over the instruction's pending requests.
//
// Selection (Pick), in priority order:
//  1. starvation: a request passed by AgingThreshold younger requests
//     (oldest first);
//  2. batching: the oldest pending request of the most recently
//     scheduled instruction;
//  3. shortest-job-first: the lowest-score request (oldest on ties);
//     without SJF, the oldest request.
//
// The per-operation costs are listed at the top of this file.
type IndexedSIMT struct {
	SJF            bool
	Batching       bool
	AgingThreshold uint64

	name string

	list       reqList
	groups     map[InstrID]*instrGroup
	heap       groupHeap
	dispatches uint64        // total Picks, the lazy-aging clock
	free       []*instrGroup // emptied groups, for reuse

	lastInstr    InstrID
	haveLast     bool
	lastDecision Decision
}

// Name implements Scheduler.
func (s *IndexedSIMT) Name() string {
	if s.name != "" {
		return s.name
	}
	return string(KindSIMTAware)
}

// Admit implements IndexedScheduler (action 1-b): the new request's
// estimate folds into its instruction's running score in O(log n).
func (s *IndexedSIMT) Admit(r *Request) {
	if s.groups == nil {
		s.groups = make(map[InstrID]*instrGroup)
	}
	g := s.groups[r.Instr]
	fresh := g == nil
	if fresh {
		if n := len(s.free); n > 0 {
			g = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			g = &instrGroup{}
		}
		*g = instrGroup{hpos: -1}
		s.groups[r.Instr] = g
	}
	g.score += r.Est
	r.Score = g.score
	g.push(r)
	r.agingBase = s.dispatches + uint64(s.list.n)
	s.list.pushBack(r)
	if fresh {
		s.heap.push(g)
	} else {
		s.heap.fix(g)
	}
}

// Pick implements IndexedScheduler (action 2-a).
func (s *IndexedSIMT) Pick() *Request {
	// 1. Starvation avoidance: under FIFO admission the arrival-list
	// head is always the first request to reach the threshold.
	if s.AgingThreshold > 0 {
		if h := s.list.head; h != nil && s.dispatches-h.agingBase >= s.AgingThreshold {
			s.lastDecision = DecisionAging
			return s.commit(h)
		}
	}

	// 2. Batching: continue the most recently scheduled instruction.
	if s.Batching && s.haveLast {
		if g := s.groups[s.lastInstr]; g != nil {
			s.lastDecision = DecisionBatch
			return s.commit(g.head)
		}
	}

	// 3. Shortest-job-first by score, oldest on ties; or pure FCFS.
	if s.SJF {
		s.lastDecision = DecisionSJF
		return s.commit(s.heap[0].head)
	}
	s.lastDecision = DecisionFCFS
	return s.commit(s.list.head)
}

// LastDecision implements DecisionReporter.
func (s *IndexedSIMT) LastDecision() Decision { return s.lastDecision }

// commit finalizes a pick: unlinks r (always its group's oldest
// member), deducts its estimate from the group score, and advances the
// dispatch clock.
func (s *IndexedSIMT) commit(r *Request) *Request {
	s.lastInstr, s.haveLast = r.Instr, true
	g := s.groups[r.Instr]
	g.popHead()
	g.score -= r.Est
	s.list.remove(r)
	s.dispatches++
	if g.count == 0 {
		s.heap.removeAt(g.hpos)
		delete(s.groups, r.Instr)
		s.free = append(s.free, g)
	} else {
		s.heap.fix(g)
	}
	return r
}

// PendingLen implements IndexedScheduler.
func (s *IndexedSIMT) PendingLen() int { return s.list.n }
