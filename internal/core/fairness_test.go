package core

import "testing"

// mkCUReq builds a pending buffer from (instr, cu, est) triples.
func mkCUReq(s Scheduler, specs ...[3]int) []*Request {
	var pending []*Request
	for i, sp := range specs {
		r := &Request{
			Instr: InstrID(sp[0]),
			CU:    sp[1],
			Seq:   uint64(i + 1),
			Est:   sp[2],
		}
		pending = append(pending, r)
		s.OnArrival(r, pending)
	}
	return pending
}

func TestCUFairConstructible(t *testing.T) {
	s, err := New(KindCUFair, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "cu-fair" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestCUFairRoundRobinsAcrossCUs(t *testing.T) {
	s := &CUFair{AgingThreshold: 1 << 30}
	// Single-request instructions spread over CUs 0, 1, 2 — batching
	// never applies, so pure round-robin order must emerge.
	pending := mkCUReq(s,
		[3]int{1, 0, 1}, [3]int{2, 0, 1},
		[3]int{3, 1, 1}, [3]int{4, 1, 1},
		[3]int{5, 2, 1}, [3]int{6, 2, 1},
	)
	var cus []int
	for len(pending) > 0 {
		i := s.Select(pending)
		cus = append(cus, pending[i].CU)
		pending = append(pending[:i], pending[i+1:]...)
		if d := s.LastDecision(); d != DecisionFair {
			t.Errorf("pick %d by rule %s, want fair", len(cus), d)
		}
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if cus[i] != want[i] {
			t.Fatalf("CU service order = %v, want %v", cus, want)
		}
	}
}

func TestCUFairBatchingBeatsFairness(t *testing.T) {
	s := &CUFair{AgingThreshold: 1 << 30}
	// Instruction 7 on CU 0 has two requests; after its first is
	// scheduled, the second must follow even though CU 1 is "next".
	pending := mkCUReq(s,
		[3]int{7, 0, 1}, [3]int{7, 0, 1}, [3]int{8, 1, 1},
	)
	i := s.Select(pending)
	if pending[i].Instr != 7 {
		t.Fatalf("first pick instr = %d", pending[i].Instr)
	}
	pending = append(pending[:i], pending[i+1:]...)
	i = s.Select(pending)
	if pending[i].Instr != 7 {
		t.Errorf("batching broken: second pick instr = %d, want 7", pending[i].Instr)
	}
	if d := s.LastDecision(); d != DecisionBatch {
		t.Errorf("second pick by rule %s, want batch", d)
	}
}

func TestCUFairSJFWithinCU(t *testing.T) {
	s := &CUFair{AgingThreshold: 1 << 30}
	// Two instructions on CU 0: instruction 1 heavy (2 requests,
	// score 8), instruction 2 light (score 1). Light one must win.
	pending := mkCUReq(s,
		[3]int{1, 0, 4}, [3]int{1, 0, 4}, [3]int{2, 0, 1},
	)
	i := s.Select(pending)
	if pending[i].Instr != 2 {
		t.Errorf("within-CU pick = instr %d, want the light 2", pending[i].Instr)
	}
}

func TestCUFairAging(t *testing.T) {
	// Everything on one CU, so round-robin cannot rescue the heavy
	// request; only aging can.
	s := &CUFair{AgingThreshold: 2}
	pending := mkCUReq(s, [3]int{1, 0, 4})
	old := pending[0]
	old.Score = 1000
	for i := 0; i < 4; i++ {
		r := &Request{Instr: InstrID(50 + i), CU: 0, Seq: uint64(10 + i), Est: 1}
		pending = append(pending, r)
		s.OnArrival(r, pending)
		idx := s.Select(pending)
		chosen := pending[idx]
		pending = append(pending[:idx], pending[idx+1:]...)
		if chosen == old {
			if i < 2 {
				t.Fatalf("heavy request selected before aging could fire (round %d)", i)
			}
			if d := s.LastDecision(); d != DecisionAging {
				t.Errorf("starved request picked by rule %s, want aging", d)
			}
			return
		}
	}
	t.Fatal("starved request never boosted")
}

func TestCUFairWrapAround(t *testing.T) {
	s := &CUFair{AgingThreshold: 1 << 30}
	s.lastCU = 7 // beyond every pending CU: must wrap to the smallest
	pending := mkCUReq(s, [3]int{1, 2, 1}, [3]int{2, 5, 1})
	i := s.Select(pending)
	if pending[i].CU != 2 {
		t.Errorf("wrap pick CU = %d, want 2", pending[i].CU)
	}
}
