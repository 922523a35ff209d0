package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file is the ordering-equivalence property test for the two-level
// event queue (timing wheel plus far heap): an Engine and a refEngine
// (the executable specification below, a container/heap binary heap)
// are driven through the same randomized program of
// At/After/AfterDaemon/Abort operations — including callbacks that
// schedule more events and partial RunFor stepping — and must dispatch
// the exact same (id, cycle, dispatch index) sequence and end in the
// same clock/pending/dispatched state. A share of the delays crosses the
// wheel's window, so the far heap, the migration of far events into the
// wheel as the window reaches them, and the clock's jump over an empty
// wheel are all held to the specification.
//
// Callbacks take their follow-up decisions from a per-event plan
// generated up front from the seed, never from a shared RNG at run
// time, so both engines are handed literally the same program; any
// divergence in the logs is therefore a queue-ordering bug, not test
// contamination.

// eventHeap is the reference queue: a binary min-heap ordered by
// (at, seq) through container/heap, which boxes every event.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refEngine is Engine's contract written the plain way over eventHeap:
// the same seq stamping, daemon accounting and abort rule.
type refEngine struct {
	now        Cycle
	seq        uint64
	events     eventHeap
	dispatched uint64
	aborted    bool
	daemons    int
}

func (e *refEngine) Now() Cycle         { return e.now }
func (e *refEngine) Dispatched() uint64 { return e.dispatched }
func (e *refEngine) Pending() int       { return len(e.events) - e.daemons }
func (e *refEngine) Abort()             { e.aborted = true }

func (e *refEngine) At(c Cycle, fn func()) {
	e.seq++
	heap.Push(&e.events, event{at: c, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d uint64, fn func()) { e.At(e.now+Cycle(d), fn) }

func (e *refEngine) AfterDaemon(d uint64, fn func()) {
	e.seq++
	heap.Push(&e.events, event{at: e.now + Cycle(d), seq: e.seq, fn: fn, daemon: true})
	e.daemons++
}

func (e *refEngine) step() bool {
	if e.aborted || len(e.events) == e.daemons {
		return false
	}
	ev := heap.Pop(&e.events).(event)
	if ev.daemon {
		e.daemons--
	}
	e.now = ev.at
	e.dispatched++
	ev.fn()
	return true
}

func (e *refEngine) RunFor(n uint64) uint64 {
	var done uint64
	for done < n && e.step() {
		done++
	}
	return done
}

func (e *refEngine) Run() Cycle {
	for e.step() {
	}
	return e.now
}

// scriptEngine is the surface a script drives: Engine and refEngine.
type scriptEngine interface {
	Now() Cycle
	Dispatched() uint64
	Pending() int
	At(Cycle, func())
	After(uint64, func())
	AfterDaemon(uint64, func())
	Abort()
	RunFor(uint64) uint64
	Run() Cycle
}

// opKind is one scripted top-level operation.
type opKind uint8

const (
	opAt opKind = iota
	opAfter
	opAfterDaemon
	opRunFor
	nOps
)

type scriptOp struct {
	kind  opKind
	delay uint64 // At: absolute offset from current now; After*: delay
	n     uint64 // RunFor budget
	plan  eventPlan
}

// eventPlan is what an event's callback does when it runs. Plans are
// data, generated once and replayed identically on both engines.
type eventPlan struct {
	id      int
	spawns  []spawnPlan
	abort   bool
	daemon  bool
	recurse int // index into the shared plan table for spawned events
}

type spawnPlan struct {
	delay  uint64
	daemon bool
	planIx int
}

// engineLog records one engine's observable behavior.
type engineLog struct {
	lines []string
}

func (l *engineLog) note(id int, now Cycle, dispatchIx uint64) {
	l.lines = append(l.lines, fmt.Sprintf("%d@%d#%d", id, now, dispatchIx))
}

// runScript drives eng through the script, wiring every event plan to
// the log, and returns the log plus final engine state.
func runScript(eng scriptEngine, script []scriptOp, plans []eventPlan) (*engineLog, Cycle, int, uint64) {
	log := &engineLog{}
	var install func(p eventPlan) func()
	install = func(p eventPlan) func() {
		return func() {
			log.note(p.id, eng.Now(), eng.Dispatched())
			for _, sp := range p.spawns {
				child := plans[sp.planIx]
				if sp.daemon {
					eng.AfterDaemon(sp.delay, install(child))
				} else {
					eng.After(sp.delay, install(child))
				}
			}
			if p.abort {
				eng.Abort()
			}
		}
	}
	for _, op := range script {
		switch op.kind {
		case opAt:
			eng.At(eng.Now()+Cycle(op.delay), install(op.plan))
		case opAfter:
			eng.After(op.delay, install(op.plan))
		case opAfterDaemon:
			eng.AfterDaemon(op.delay, install(op.plan))
		case opRunFor:
			eng.RunFor(op.n)
		}
	}
	eng.Run()
	return log, eng.Now(), eng.Pending(), eng.Dispatched()
}

// farDelays cross the wheel's window edge: the last delay inside it, the
// first two beyond it, a whole window beyond, and one long enough that
// the wheel drains and the clock jumps to the far heap's minimum.
var farDelays = [...]uint64{wheelSize - 1, wheelSize, wheelSize + 1, 2 * wheelSize, 20000}

// genDelay draws a delay below small, or one of farDelays one time in
// eight.
func genDelay(rng *rand.Rand, small int) uint64 {
	if rng.Intn(8) == 0 {
		return farDelays[rng.Intn(len(farDelays))]
	}
	return uint64(rng.Intn(small))
}

// genProgram builds a random script + plan table from rng. Most delays
// are drawn from a tiny range so same-cycle ties — the case the FIFO seq
// tie-break exists for — are the common case, not the rare one; the
// rest are farDelays.
func genProgram(rng *rand.Rand) ([]scriptOp, []eventPlan) {
	nextID := 0
	var plans []eventPlan
	var genPlan func(depth int) int
	genPlan = func(depth int) int {
		p := eventPlan{id: nextID}
		nextID++
		ix := len(plans)
		plans = append(plans, p) // reserve slot before recursing
		if depth < 3 {
			for s := rng.Intn(3); s > 0; s-- {
				plans[ix].spawns = append(plans[ix].spawns, spawnPlan{
					delay:  genDelay(rng, 5),
					daemon: rng.Intn(8) == 0,
					planIx: genPlan(depth + 1),
				})
			}
		}
		plans[ix].abort = rng.Intn(200) == 0
		return ix
	}
	var script []scriptOp
	for i := rng.Intn(60) + 20; i > 0; i-- {
		op := scriptOp{kind: opKind(rng.Intn(int(nOps)))}
		switch op.kind {
		case opAt, opAfter, opAfterDaemon:
			op.delay = genDelay(rng, 8)
			op.plan = plans[genPlan(0)]
		case opRunFor:
			op.n = uint64(rng.Intn(10))
		}
		script = append(script, op)
	}
	return script, plans
}

// TestEngineOrderProperty is the property test: across many seeds, the
// two-level queue and the container/heap reference dispatch identically.
func TestEngineOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		script, plans := genProgram(rand.New(rand.NewSource(seed)))
		flatLog, flatNow, flatPend, flatDisp := runScript(NewEngine(), script, plans)
		refLog, refNow, refPend, refDisp := runScript(&refEngine{}, script, plans)
		if flatNow != refNow || flatPend != refPend || flatDisp != refDisp {
			t.Fatalf("seed %d: final state (now=%d pend=%d disp=%d) vs reference (now=%d pend=%d disp=%d)",
				seed, flatNow, flatPend, flatDisp, refNow, refPend, refDisp)
		}
		if len(flatLog.lines) != len(refLog.lines) {
			t.Fatalf("seed %d: dispatched %d events vs reference %d",
				seed, len(flatLog.lines), len(refLog.lines))
		}
		for i := range flatLog.lines {
			if flatLog.lines[i] != refLog.lines[i] {
				t.Fatalf("seed %d: dispatch %d = %s, reference %s",
					seed, i, flatLog.lines[i], refLog.lines[i])
			}
		}
	}
}

// fuzzDelay decodes a delay from one byte: its low four bits are the
// delay itself, except that the top len(farDelays) values stand for
// farDelays.
func fuzzDelay(b byte) uint64 {
	d := uint64(b % 16)
	if k := int(d) - (16 - len(farDelays)); k >= 0 {
		return farDelays[k]
	}
	return d
}

// FuzzEngineOrder feeds the same differential check from fuzzed bytes:
// each byte pair is decoded into one operation, so the fuzzer explores
// op interleavings the random generator's distribution may never hit.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 40, 5, 60, 7})
	f.Add([]byte{12, 12, 12, 12})
	// Far events first, then same-cycle pushes as the window reaches
	// them: At(now+W) and After(W+1) go to the far heap, RunFor steps
	// the clock one cycle, and At(now+W-1) lands on the first one's
	// cycle, behind it in seq.
	f.Add([]byte{0, 12, 1, 13, 1, 1, 3, 1, 0, 11, 2, 14, 3, 7})
	// Only far events: the wheel is empty whenever the clock advances,
	// so every advance jumps to the far heap's minimum.
	f.Add([]byte{1, 15, 2, 15, 0, 14, 1, 15, 3, 2, 0, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		var script []scriptOp
		var plans []eventPlan
		for i := 0; i+1 < len(data); i += 2 {
			op := scriptOp{kind: opKind(data[i] % uint8(nOps))}
			switch op.kind {
			case opAt, opAfter, opAfterDaemon:
				op.delay = fuzzDelay(data[i+1])
				ix := len(plans)
				plans = append(plans, eventPlan{id: ix, abort: data[i+1]%64 == 63})
				op.plan = plans[ix]
			case opRunFor:
				op.n = uint64(data[i+1] % 8)
			}
			script = append(script, op)
		}
		flatLog, flatNow, _, _ := runScript(NewEngine(), script, plans)
		refLog, refNow, _, _ := runScript(&refEngine{}, script, plans)
		if flatNow != refNow || len(flatLog.lines) != len(refLog.lines) {
			t.Fatalf("state diverged: now %d vs %d, %d vs %d dispatches",
				flatNow, refNow, len(flatLog.lines), len(refLog.lines))
		}
		for i := range flatLog.lines {
			if flatLog.lines[i] != refLog.lines[i] {
				t.Fatalf("dispatch %d: %s vs reference %s", i, flatLog.lines[i], refLog.lines[i])
			}
		}
	})
}
