package core

import (
	"fmt"
	"testing"
)

// mkreq builds a pending buffer from (instr, est) pairs, assigning
// arrival sequence numbers in order and running OnArrival scoring.
func mkreq(s Scheduler, specs ...[2]int) []*Request {
	var pending []*Request
	for i, sp := range specs {
		r := &Request{
			VPN:   uint64(1000 + i),
			Instr: InstrID(sp[0]),
			Seq:   uint64(i + 1),
			Est:   sp[1],
		}
		pending = append(pending, r)
		s.OnArrival(r, pending)
	}
	return pending
}

// drain repeatedly selects until the buffer empties, returning the
// instruction IDs in service order.
func drain(s Scheduler, pending []*Request) []InstrID {
	var order []InstrID
	for len(pending) > 0 {
		i := s.Select(pending)
		order = append(order, pending[i].Instr)
		pending = append(pending[:i], pending[i+1:]...)
	}
	return order
}

func TestNewKinds(t *testing.T) {
	for _, k := range Kinds() {
		s, err := New(k, Options{Seed: 1})
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if s.Name() != string(k) {
			t.Errorf("Name = %q, want %q", s.Name(), k)
		}
	}
	if _, err := New("bogus", Options{}); err == nil {
		t.Error("unknown kind did not error")
	}
}

func TestFCFSOrder(t *testing.T) {
	s := FCFS{}
	pending := mkreq(s, [2]int{3, 1}, [2]int{1, 4}, [2]int{2, 2})
	order := drain(s, pending)
	want := []InstrID{3, 1, 2} // arrival order
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	runOrder := func(seed uint64) []InstrID {
		s := NewRandom(seed)
		pending := mkreq(s,
			[2]int{1, 1}, [2]int{2, 1}, [2]int{3, 1}, [2]int{4, 1},
			[2]int{5, 1}, [2]int{6, 1}, [2]int{7, 1}, [2]int{8, 1})
		return drain(s, pending)
	}
	a, b := runOrder(7), runOrder(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different random orders")
		}
	}
	c := runOrder(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical orders (suspicious)")
	}
}

func TestSIMTAwareScoring(t *testing.T) {
	s := &SIMTAware{SJF: true, Batching: true, AgingThreshold: 1 << 30}
	var pending []*Request
	add := func(instr, est int) *Request {
		r := &Request{Instr: InstrID(instr), Seq: uint64(len(pending) + 1), Est: est}
		pending = append(pending, r)
		s.OnArrival(r, pending)
		return r
	}
	a1 := add(1, 4)
	if a1.Score != 4 {
		t.Errorf("first request score = %d, want 4", a1.Score)
	}
	a2 := add(1, 2)
	if a1.Score != 6 || a2.Score != 6 {
		t.Errorf("same-instruction scores = %d,%d, want 6,6", a1.Score, a2.Score)
	}
	b1 := add(2, 1)
	if b1.Score != 1 {
		t.Errorf("other instruction score = %d, want 1", b1.Score)
	}
	if a1.Score != 6 {
		t.Error("unrelated arrival changed instruction 1's score")
	}
}

func TestSIMTAwareSJFPicksLowestScore(t *testing.T) {
	s := &SIMTAware{SJF: true, AgingThreshold: 1 << 30}
	// Instruction 1: two requests (score 8); instruction 2: one light
	// request (score 1).
	pending := mkreq(s, [2]int{1, 4}, [2]int{1, 4}, [2]int{2, 1})
	idx := s.Select(pending)
	if pending[idx].Instr != 2 {
		t.Errorf("SJF selected instruction %d, want 2", pending[idx].Instr)
	}
}

func TestSIMTAwareTieBreaksOldest(t *testing.T) {
	s := &SIMTAware{SJF: true, AgingThreshold: 1 << 30}
	pending := mkreq(s, [2]int{5, 2}, [2]int{6, 2})
	idx := s.Select(pending)
	if pending[idx].Instr != 5 {
		t.Errorf("tie selected instruction %d, want the older 5", pending[idx].Instr)
	}
}

func TestSIMTAwareBatching(t *testing.T) {
	s := &SIMTAware{SJF: true, Batching: true, AgingThreshold: 1 << 30}
	// Instruction 9 is light (selected first); instruction 7 heavy.
	// After servicing one request of 9, its remaining request must be
	// preferred over the lighter-scored... construct: 9 has two requests
	// score 2; 7 has one request score 1. First Select: 7 (score 1).
	// Then batching keeps 7? 7 has no more. Next select: 9. Then batch
	// prefers 9's second request even if a new lighter request arrived.
	pending := mkreq(s, [2]int{9, 1}, [2]int{9, 1}, [2]int{7, 1})
	idx := s.Select(pending) // scores: 9 -> 2, 7 -> 1: picks 7
	if pending[idx].Instr != 7 {
		t.Fatalf("first pick = %d, want 7", pending[idx].Instr)
	}
	pending = append(pending[:idx], pending[idx+1:]...)

	idx = s.Select(pending) // no 7 left: lowest score 9 (first of them)
	if pending[idx].Instr != 9 {
		t.Fatalf("second pick = %d, want 9", pending[idx].Instr)
	}
	first9 := pending[idx].Seq
	pending = append(pending[:idx], pending[idx+1:]...)

	// A brand-new light instruction arrives; batching must still prefer
	// the pending request of 9.
	r := &Request{Instr: 42, Seq: 100, Est: 1}
	pending = append(pending, r)
	s.OnArrival(r, pending)
	idx = s.Select(pending)
	if pending[idx].Instr != 9 {
		t.Errorf("batching did not stick with instruction 9 (got %d)", pending[idx].Instr)
	}
	if pending[idx].Seq <= first9 {
		t.Errorf("batch served requests out of order")
	}
}

func TestSIMTAwareBatchOldestFirst(t *testing.T) {
	s := &SIMTAware{Batching: true, AgingThreshold: 1 << 30}
	pending := mkreq(s, [2]int{4, 1}, [2]int{4, 1}, [2]int{4, 1})
	var seqs []uint64
	for len(pending) > 0 {
		i := s.Select(pending)
		seqs = append(seqs, pending[i].Seq)
		pending = append(pending[:i], pending[i+1:]...)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("batch order not oldest-first: %v", seqs)
		}
	}
}

func TestAgingForcesStarvedRequest(t *testing.T) {
	s := &SIMTAware{SJF: true, AgingThreshold: 3}
	// One heavy old request and a stream of fresh light ones.
	old := &Request{Instr: 1, Seq: 1, Est: 4, Score: 100}
	pending := []*Request{old}
	s.OnArrival(old, pending)
	old.Score = 100 // force heavy

	for i := 0; i < 5; i++ {
		r := &Request{Instr: InstrID(10 + i), Seq: uint64(2 + i), Est: 1}
		pending = append(pending, r)
		s.OnArrival(r, pending)
		idx := s.Select(pending)
		chosen := pending[idx]
		pending = append(pending[:idx], pending[idx+1:]...)
		if chosen == old {
			if i < 3 {
				t.Fatalf("aged request selected too early (round %d)", i)
			}
			if d := s.LastDecision(); d != DecisionAging {
				t.Errorf("starved request picked by rule %s, want aging", d)
			}
			return
		}
	}
	t.Fatal("starved request was never force-selected")
}

func TestSJFOnlyDoesNotBatch(t *testing.T) {
	s := &SIMTAware{SJF: true, AgingThreshold: 1 << 30, name: string(KindSJF)}
	// Service one request of instruction 1, then a lighter instruction 2
	// arrives; without batching, 2 must win even though 1 was last.
	pending := mkreq(s, [2]int{1, 2}, [2]int{1, 2})
	idx := s.Select(pending)
	pending = append(pending[:idx], pending[idx+1:]...)
	r := &Request{Instr: 2, Seq: 50, Est: 1}
	pending = append(pending, r)
	s.OnArrival(r, pending)
	idx = s.Select(pending)
	if pending[idx].Instr != 2 {
		t.Errorf("SJF-only picked %d, want 2", pending[idx].Instr)
	}
}

func TestBatchOnlyFallsBackToFCFS(t *testing.T) {
	s := &SIMTAware{Batching: true, AgingThreshold: 1 << 30, name: string(KindBatch)}
	// No last instruction yet: picks oldest regardless of score.
	pending := mkreq(s, [2]int{1, 4}, [2]int{2, 1})
	pending[0].Score, pending[1].Score = 100, 1
	idx := s.Select(pending)
	if pending[idx].Instr != 1 {
		t.Errorf("batch-only first pick = %d, want oldest (1)", pending[idx].Instr)
	}
}

// TestBatchingTimeline reproduces the Figure 4 scenario: two SIMD
// instructions (load A with 3 walks, load B with 5 walks) whose requests
// interleave in arrival order. Under FCFS the service order interleaves
// them; under the batching scheduler, once a request of A is scheduled,
// all of A's requests are serviced before B resumes, so A completes
// strictly earlier without delaying B's last request.
func TestBatchingTimeline(t *testing.T) {
	// Interleaved arrivals: A B B A B B A B (A=3 requests, B=5).
	arrivals := []int{1, 2, 2, 1, 2, 2, 1, 2}

	build := func(s Scheduler) []*Request {
		var pending []*Request
		for i, instr := range arrivals {
			r := &Request{Instr: InstrID(instr), Seq: uint64(i + 1), Est: 1}
			pending = append(pending, r)
			s.OnArrival(r, pending)
		}
		return pending
	}
	lastPos := func(order []InstrID, id InstrID) int {
		last := -1
		for i, v := range order {
			if v == id {
				last = i
			}
		}
		return last
	}

	fcfs := FCFS{}
	fcfsOrder := drain(fcfs, build(fcfs))
	batch := &SIMTAware{Batching: true, AgingThreshold: 1 << 30}
	batchOrder := drain(batch, build(batch))

	aFCFS, aBatch := lastPos(fcfsOrder, 1), lastPos(batchOrder, 1)
	bFCFS, bBatch := lastPos(fcfsOrder, 2), lastPos(batchOrder, 2)
	if aBatch >= aFCFS {
		t.Errorf("batching did not finish A earlier: fcfs=%d batch=%d (order %v)", aFCFS, aBatch, batchOrder)
	}
	if bBatch != bFCFS {
		t.Errorf("batching delayed B's completion: fcfs=%d batch=%d", bFCFS, bBatch)
	}
	// Under batching, A's requests must be contiguous from its first
	// service onward.
	first := -1
	for i, v := range batchOrder {
		if v == 1 {
			first = i
			break
		}
	}
	for i := first; i <= aBatch; i++ {
		if batchOrder[i] != 1 {
			t.Errorf("A's batch interrupted at position %d: %v", i, batchOrder)
		}
	}
}

// TestStatsCounters checks that a drain reports the rule behind each
// pick: the light instruction wins by SJF, then batching finishes the
// heavy one.
func TestStatsCounters(t *testing.T) {
	s := &SIMTAware{SJF: true, Batching: true, AgingThreshold: 1 << 30}
	pending := mkreq(s, [2]int{1, 2}, [2]int{1, 2}, [2]int{2, 1})
	var rules []Decision
	for len(pending) > 0 {
		i := s.Select(pending)
		rules = append(rules, s.LastDecision())
		pending = append(pending[:i], pending[i+1:]...)
	}
	want := []Decision{DecisionSJF, DecisionSJF, DecisionBatch}
	if fmt.Sprint(rules) != fmt.Sprint(want) {
		t.Errorf("rules = %v, want %v", rules, want)
	}
}
