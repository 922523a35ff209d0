package core

import (
	"fmt"
	"testing"

	"gpuwalk/internal/xrand"
)

// diffOptions are the construction variants the differential suite
// exercises: frequent aging, effectively-disabled aging.
func diffOptions() []Options {
	return []Options{
		{Seed: 11, AgingThreshold: 4},
		{Seed: 11, AgingThreshold: 1 << 30},
	}
}

// TestDifferentialIndexedVsReference feeds identical randomized
// arrival/pick streams (FIFO admission, as the IOMMU guarantees) to the
// indexed and the linear implementation of every built-in policy and
// requires the same pick and the same LastDecision every time.
func TestDifferentialIndexedVsReference(t *testing.T) {
	for _, kind := range Kinds() {
		for _, opt := range diffOptions() {
			for seed := uint64(1); seed <= 5; seed++ {
				testDifferentialStream(t, kind, opt, seed)
			}
		}
	}
}

// testDifferentialStream runs one differential stream and returns how
// often each rule made a pick.
func testDifferentialStream(t *testing.T, kind Kind, opt Options, seed uint64) map[Decision]int {
	t.Helper()
	ref, err := newLinear(kind, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(kind, opt)
	if err != nil {
		t.Fatal(err)
	}

	rng := xrand.New(seed)
	seq := uint64(0)
	mk := func() (a, b *Request) {
		seq++
		// A sliding window of instruction IDs so groups overlap in the
		// buffer.
		r := Request{
			VPN:   rng.Uint64() % 64, // collisions on purpose
			Instr: InstrID(seq / 6),
			Seq:   seq,
			Est:   1 + int(rng.Uint64n(4)),
		}
		a, b = new(Request), new(Request)
		*a, *b = r, r
		return a, b
	}

	rules := map[Decision]int{}
	pick := func(step string) {
		got, want := ix.Pick(), ref.Pick()
		if got.Seq != want.Seq {
			t.Fatalf("%s opt=%+v seed=%d %s: indexed picked seq %d, reference picked seq %d",
				kind, opt, seed, step, got.Seq, want.Seq)
		}
		if g, w := ix.LastDecision(), ref.LastDecision(); g != w {
			t.Fatalf("%s opt=%+v seed=%d %s: indexed picked seq %d by rule %s, reference by %s",
				kind, opt, seed, step, got.Seq, g, w)
		}
		rules[ix.LastDecision()]++
	}
	for i := 0; i < 3000; i++ {
		if ref.PendingLen() == 0 || rng.Uint64n(100) < 55 {
			a, b := mk()
			ref.Admit(a)
			ix.Admit(b)
			continue
		}
		pick(fmt.Sprintf("step %d", i))
	}
	// Drain completely: tail-end behaviour (groups emptying) must match
	// too.
	for ref.PendingLen() > 0 {
		pick("drain")
	}
	if ix.PendingLen() != 0 {
		t.Fatalf("indexed still reports %d pending after drain", ix.PendingLen())
	}
	return rules
}

// TestDifferentialStats checks that the differential streams reach
// every rule of SIMT-aware, so the per-pick LastDecision comparison
// covers aging, batching and SJF alike.
func TestDifferentialStats(t *testing.T) {
	rules := testDifferentialStream(t, KindSIMTAware, Options{AgingThreshold: 8}, 99)
	for _, d := range []Decision{DecisionAging, DecisionBatch, DecisionSJF} {
		if rules[d] == 0 {
			t.Errorf("the stream never picked by rule %s (picks by rule: %v)", d, rules)
		}
	}
}

// TestLazyAgingFiresWithEager proves the lazy aging check (dispatch
// counter vs. admission stamp) force-selects the starved request on
// exactly the same pick as the linear specification's eager counts.
func TestLazyAgingFiresWithEager(t *testing.T) {
	const threshold = 3
	ref, _ := newLinear(KindSIMTAware, Options{AgingThreshold: threshold})
	ix, _ := New(KindSIMTAware, Options{AgingThreshold: threshold})

	// One heavy old request, then a stream of light strangers: every
	// pick passes the old request until aging rescues it.
	seq := uint64(0)
	admitBoth := func(instr InstrID, est int) {
		seq++
		r := Request{Instr: instr, Seq: seq, Est: est}
		a, b := new(Request), new(Request)
		*a, *b = r, r
		ref.Admit(a)
		ix.Admit(b)
	}
	admitBoth(1, 4)
	admitBoth(1, 4) // score 8: always loses SJF to the light arrivals

	for round := 0; round < 10; round++ {
		admitBoth(InstrID(100+round), 1)
		got, want := ix.Pick(), ref.Pick()
		if got.Seq != want.Seq {
			t.Fatalf("round %d: indexed picked seq %d, reference seq %d", round, got.Seq, want.Seq)
		}
		aged := ref.LastDecision() == DecisionAging
		if (ix.LastDecision() == DecisionAging) != aged {
			t.Fatalf("round %d: aging fired on different picks (indexed %s, reference %s)",
				round, ix.LastDecision(), ref.LastDecision())
		}
		if aged {
			if want.Seq != 1 {
				t.Fatalf("aging rescued seq %d, want the starved head (seq 1)", want.Seq)
			}
			return
		}
	}
	t.Fatal("aging never fired despite threshold 3")
}

// TestCommitDecrementsSurvivorScore is the regression test for the
// stale-score bug: dispatching one of two same-instruction requests
// must drop the survivor's shared score by the chosen estimate, per
// the paper's "sum over pending requests" definition.
func TestCommitDecrementsSurvivorScore(t *testing.T) {
	s := &SIMTAware{SJF: true, Batching: true, AgingThreshold: 1 << 30}
	pending := mkreq(s, [2]int{1, 3}, [2]int{1, 2})
	if pending[0].Score != 5 || pending[1].Score != 5 {
		t.Fatalf("setup scores = %d,%d, want 5,5", pending[0].Score, pending[1].Score)
	}
	idx := s.Select(pending)
	chosen := pending[idx]
	survivor := pending[1-idx]
	if want := 5 - chosen.Est; survivor.Score != want {
		t.Errorf("survivor score = %d after dispatching Est=%d sibling, want %d",
			survivor.Score, chosen.Est, want)
	}
}

// recordingPolicy is a slice policy that records what OnArrival sees
// and selects a fixed position.
type recordingPolicy struct {
	arrivals [][]uint64 // Seqs of the pending slice at each OnArrival
	selectAt int
}

func (p *recordingPolicy) Name() string { return "recording" }

func (p *recordingPolicy) OnArrival(_ *Request, pending []*Request) {
	p.arrivals = append(p.arrivals, seqs(pending))
}

func (p *recordingPolicy) Select(pending []*Request) int { return p.selectAt }

func seqs(rs []*Request) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Seq
	}
	return out
}

// TestAdapt pins the slice-policy adapter: OnArrival sees the pending
// slice with r appended, and Pick removes the Selected entry without
// reordering the rest.
func TestAdapt(t *testing.T) {
	p := &recordingPolicy{selectAt: 1}
	a := Adapt(p)
	for seq := uint64(1); seq <= 4; seq++ {
		a.Admit(&Request{Seq: seq})
	}
	if got, want := fmt.Sprint(p.arrivals), "[[1] [1 2] [1 2 3] [1 2 3 4]]"; got != want {
		t.Errorf("OnArrival saw %s, want %s", got, want)
	}
	if r := a.Pick(); r.Seq != 2 {
		t.Errorf("Pick = seq %d, want seq 2 (index 1)", r.Seq)
	}
	a.Admit(&Request{Seq: 5})
	if got, want := fmt.Sprint(p.arrivals[len(p.arrivals)-1]), "[1 3 4 5]"; got != want {
		t.Errorf("pending after Pick and Admit = %s, want %s", got, want)
	}
	if a.PendingLen() != 4 {
		t.Errorf("PendingLen = %d, want 4", a.PendingLen())
	}
	if a.Name() != "recording" {
		t.Errorf("Name = %q", a.Name())
	}
	if d := a.LastDecision(); d != DecisionNone {
		t.Errorf("LastDecision of a non-reporting policy = %s, want none", d)
	}
	if d := Adapt(FCFS{}).LastDecision(); d != DecisionFCFS {
		t.Errorf("LastDecision not forwarded: %s", d)
	}
}

// BenchmarkSchedulerSelect measures steady-state scheduling throughput
// (one pick plus one arrival per iteration, buffer occupancy held at
// the target size) for the indexed SIMT-aware scheduler against its
// linear specification. Requests arrive in same-instruction runs of 8,
// matching the coalescer's bursty miss pattern.
func BenchmarkSchedulerSelect(b *testing.B) {
	for _, entries := range []int{256, 1024, 4096} {
		for _, mode := range []struct {
			name  string
			build func(Kind, Options) (IndexedScheduler, error)
		}{{"reference", newLinear}, {"indexed", New}} {
			b.Run(fmt.Sprintf("%s/%s/buf-%d", KindSIMTAware, mode.name, entries), func(b *testing.B) {
				s, err := mode.build(KindSIMTAware, Options{Seed: 1, AgingThreshold: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				seq := uint64(0)
				admit := func() {
					seq++
					s.Admit(&Request{Instr: InstrID(seq / 8), Seq: seq, Est: 1 + int(seq%4)})
				}
				for i := 0; i < entries; i++ {
					admit()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Pick()
					admit()
				}
			})
		}
	}
}
