package core

import "sort"

// IndexedCUFair is an extension beyond the paper. Section VI/VII of
// the paper points at memory-controller QoS research (ATLAS, TCM,
// PAR-BS, DASH) and explicitly leaves "different flavors of page walk
// scheduling for both performance and QoS" as follow-on work. CU-fair
// is one such flavor: it keeps the SIMT-aware scheduler's
// same-instruction batching (which protects per-instruction completion)
// and shortest-job-first scoring, but arbitrates *across compute units*
// round-robin, so a CU whose wavefronts issue translation-light
// instructions cannot monopolize the walkers indefinitely.
//
// Selection order:
//  1. starvation avoidance (as SIMT-aware);
//  2. batching: the oldest pending request of the most recently
//     scheduled instruction, to preserve batch integrity;
//  3. fairness: the next CU after the last-served one (round-robin over
//     CUs with pending requests), and within that CU the lowest-score
//     request, oldest on ties.
//
// It runs a (score, oldest-seq) min-heap per compute unit plus a sorted
// active-CU set, so a pick is O(log n) instead of three O(n) scans.
type IndexedCUFair struct {
	AgingThreshold uint64

	list       reqList
	groups     map[InstrID]*instrGroup
	lanes      map[int]*cuLane
	active     []int // sorted CU ids with pending work
	dispatches uint64

	lastInstr    InstrID
	haveLast     bool
	lastCU       int
	served       bool // lastCU is only meaningful after the first pick
	lastDecision Decision
}

// cuLane is one compute unit's slice of the pending buffer: a score
// heap over that CU's instruction groups.
type cuLane struct {
	cu   int
	heap groupHeap
}

// Name implements Scheduler.
func (s *IndexedCUFair) Name() string { return string(KindCUFair) }

// Admit implements IndexedScheduler with the same score maintenance as
// IndexedSIMT, on the issuing CU's lane.
func (s *IndexedCUFair) Admit(r *Request) {
	if s.groups == nil {
		s.groups = make(map[InstrID]*instrGroup)
		s.lanes = make(map[int]*cuLane)
	}
	g := s.groups[r.Instr]
	fresh := g == nil
	if fresh {
		g = &instrGroup{instr: r.Instr, cu: r.CU, hpos: -1}
		s.groups[r.Instr] = g
	}
	g.score += r.Est
	r.Score = g.score
	g.push(r)
	r.agingBase = s.dispatches + uint64(s.list.n)
	s.list.pushBack(r)

	lane := s.lanes[g.cu]
	if lane == nil {
		lane = &cuLane{cu: g.cu}
		s.lanes[g.cu] = lane
		i := sort.SearchInts(s.active, g.cu)
		s.active = append(s.active, 0)
		copy(s.active[i+1:], s.active[i:])
		s.active[i] = g.cu
	}
	if fresh {
		lane.heap.push(g)
	} else {
		lane.heap.fix(g)
	}
}

// Pick implements IndexedScheduler.
func (s *IndexedCUFair) Pick() *Request {
	// 1. Starvation avoidance (as IndexedSIMT).
	if s.AgingThreshold > 0 {
		if h := s.list.head; h != nil && s.dispatches-h.agingBase >= s.AgingThreshold {
			s.lastDecision = DecisionAging
			return s.commit(h)
		}
	}

	// 2. Batch integrity.
	if s.haveLast {
		if g := s.groups[s.lastInstr]; g != nil {
			s.lastDecision = DecisionBatch
			return s.commit(g.head)
		}
	}

	// 3. Round-robin across CUs, lowest score (oldest on ties) within
	// the winning CU.
	last := s.lastCU
	if !s.served {
		last = -1
	}
	i := sort.SearchInts(s.active, last+1)
	if i == len(s.active) {
		i = 0 // wrap to the smallest pending CU
	}
	lane := s.lanes[s.active[i]]
	s.lastDecision = DecisionFair
	return s.commit(lane.heap[0].head)
}

// LastDecision implements DecisionReporter.
func (s *IndexedCUFair) LastDecision() Decision { return s.lastDecision }

func (s *IndexedCUFair) commit(r *Request) *Request {
	s.lastInstr, s.haveLast = r.Instr, true
	s.lastCU, s.served = r.CU, true
	g := s.groups[r.Instr]
	g.popHead()
	g.score -= r.Est
	s.list.remove(r)
	s.dispatches++
	lane := s.lanes[g.cu]
	if g.count == 0 {
		lane.heap.removeAt(g.hpos)
		delete(s.groups, r.Instr)
		if len(lane.heap) == 0 {
			delete(s.lanes, g.cu)
			i := sort.SearchInts(s.active, g.cu)
			s.active = append(s.active[:i], s.active[i+1:]...)
		}
	} else {
		lane.heap.fix(g)
	}
	return r
}

// PendingLen implements IndexedScheduler.
func (s *IndexedCUFair) PendingLen() int { return s.list.n }
