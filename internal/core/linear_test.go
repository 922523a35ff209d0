package core

import (
	"fmt"

	"gpuwalk/internal/xrand"
)

// This file holds the linear implementations of the built-in policies:
// slice policies that rescan the whole pending buffer on every arrival
// and pick, O(n) each. They are the executable specification of the
// indexed schedulers New builds: TestDifferentialIndexedVsReference
// feeds both the same streams and requires the same pick and the same
// LastDecision every time.

// newLinear constructs the linear specification of a built-in policy,
// run through Adapt the way the IOMMU runs a custom slice policy.
func newLinear(kind Kind, opt Options) (IndexedScheduler, error) {
	aging := opt.AgingThreshold
	if aging == 0 {
		aging = DefaultAging
	}
	var s Scheduler
	switch kind {
	case KindFCFS:
		s = FCFS{}
	case KindRandom:
		s = NewRandom(opt.Seed)
	case KindSJF:
		s = &SIMTAware{SJF: true, AgingThreshold: aging, name: string(KindSJF)}
	case KindBatch:
		s = &SIMTAware{Batching: true, AgingThreshold: aging, name: string(KindBatch)}
	case KindSIMTAware:
		s = &SIMTAware{SJF: true, Batching: true, AgingThreshold: aging, name: string(KindSIMTAware)}
	default:
		return nil, fmt.Errorf("core: unknown scheduler kind %q", kind)
	}
	return Adapt(s), nil
}

// passedCounts is the linear policies' eager aging state: for each
// pending request, how many younger requests were dispatched past it.
type passedCounts map[*Request]uint64

// commit ages every pending request older than chosen and forgets
// chosen itself.
func (pc *passedCounts) commit(pending []*Request, chosen *Request) {
	if *pc == nil {
		*pc = passedCounts{}
	}
	for _, p := range pending {
		if p.Seq < chosen.Seq {
			(*pc)[p]++
		}
	}
	delete(*pc, chosen)
}

// FCFS services requests strictly in arrival order (the paper's
// baseline). The zero value is ready to use.
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return string(KindFCFS) }

// OnArrival implements Scheduler; FCFS keeps no state.
func (FCFS) OnArrival(*Request, []*Request) {}

// LastDecision implements DecisionReporter: FCFS has only one rule.
func (FCFS) LastDecision() Decision { return DecisionFCFS }

// Select implements Scheduler: the oldest pending request.
func (FCFS) Select(pending []*Request) int {
	best := 0
	for i := 1; i < len(pending); i++ {
		if pending[i].Seq < pending[best].Seq {
			best = i
		}
	}
	return best
}

// Random picks a uniformly random pending request — the paper's
// cautionary strawman, which slows irregular applications by ~26%.
type Random struct {
	rng *xrand.Rand
}

// NewRandom returns a Random scheduler with a deterministic seed.
func NewRandom(seed uint64) *Random { return &Random{rng: xrand.New(seed)} }

// Name implements Scheduler.
func (*Random) Name() string { return string(KindRandom) }

// OnArrival implements Scheduler; Random keeps no per-request state.
func (*Random) OnArrival(*Request, []*Request) {}

// LastDecision implements DecisionReporter.
func (*Random) LastDecision() Decision { return DecisionRandom }

// Select implements Scheduler.
func (r *Random) Select(pending []*Request) int {
	return r.rng.Intn(len(pending))
}

// SIMTAware is the linear specification of IndexedSIMT: the same rules
// (see IndexedSIMT), found by scanning the pending slice.
type SIMTAware struct {
	SJF            bool
	Batching       bool
	AgingThreshold uint64

	name         string
	lastInstr    InstrID
	haveLast     bool
	lastDecision Decision
	passed       passedCounts
}

// Name implements Scheduler.
func (s *SIMTAware) Name() string {
	if s.name != "" {
		return s.name
	}
	return string(KindSIMTAware)
}

// OnArrival implements Scheduler: action 1-a happened in the IOMMU
// (r.Est is set from the PWC probe); this is action 1-b, the scan that
// folds the estimate into the instruction's shared score.
func (s *SIMTAware) OnArrival(r *Request, pending []*Request) {
	prev := 0
	for _, p := range pending {
		if p != r && p.Instr == r.Instr {
			prev = p.Score
			break
		}
	}
	score := prev + r.Est
	for _, p := range pending {
		if p.Instr == r.Instr {
			p.Score = score
		}
	}
}

// Select implements Scheduler (action 2-a).
func (s *SIMTAware) Select(pending []*Request) int {
	best := -1
	pick := func(i int) { best = i }

	// 1. Starvation avoidance.
	if s.AgingThreshold > 0 {
		for i, p := range pending {
			if s.passed[p] >= s.AgingThreshold &&
				(best == -1 || p.Seq < pending[best].Seq) {
				pick(i)
			}
		}
		if best >= 0 {
			s.lastDecision = DecisionAging
			return s.commit(pending, best)
		}
	}

	// 2. Batching: continue the most recently scheduled instruction.
	if s.Batching && s.haveLast {
		for i, p := range pending {
			if p.Instr == s.lastInstr &&
				(best == -1 || p.Seq < pending[best].Seq) {
				pick(i)
			}
		}
		if best >= 0 {
			s.lastDecision = DecisionBatch
			return s.commit(pending, best)
		}
	}

	// 3. Shortest-job-first by score, oldest on ties; or pure FCFS.
	best = 0
	for i := 1; i < len(pending); i++ {
		p, b := pending[i], pending[best]
		if s.SJF {
			if p.Score < b.Score || (p.Score == b.Score && p.Seq < b.Seq) {
				best = i
			}
		} else if p.Seq < b.Seq {
			best = i
		}
	}
	if s.SJF {
		s.lastDecision = DecisionSJF
	} else {
		s.lastDecision = DecisionFCFS
	}
	return s.commit(pending, best)
}

// LastDecision implements DecisionReporter.
func (s *SIMTAware) LastDecision() Decision { return s.lastDecision }

// commit finalizes a selection: remembers the instruction for batching,
// ages every request older than the one chosen, and removes the chosen
// request's estimate from its instruction's shared score so the
// survivors keep the paper's "sum over pending requests" semantics.
func (s *SIMTAware) commit(pending []*Request, idx int) int {
	chosen := pending[idx]
	s.lastInstr = chosen.Instr
	s.haveLast = true
	s.passed.commit(pending, chosen)
	for _, p := range pending {
		if p.Instr == chosen.Instr && p != chosen {
			p.Score -= chosen.Est
		}
	}
	return idx
}
