// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a cycle-accurate clock and dispatches scheduled
// callbacks in (cycle, insertion-order) order, which makes every run of a
// simulation bit-for-bit reproducible. All timing in gpuwalk is expressed
// in GPU core cycles (2 GHz in the baseline configuration, so one cycle
// is 0.5 ns).
//
// # Queue internals
//
// The event queue has two levels. A timing wheel (Varghese and Lauck,
// "Hashed and Hierarchical Timing Wheels", SOSP 1987) holds every event
// due in the window [Now, Now+wheelSize): one FIFO list per cycle, so
// both scheduling onto a cycle and dispatching from it are O(1) however
// many events share it. The simulator's load is exactly that: bursts of
// events on the same few cycles, with thousands queued at once while
// DRAM is busy. All lists link through one node slab with a free list,
// so memory follows the events in flight rather than each slot's
// largest burst, and a four-word occupancy bitmap finds the next
// non-empty slot.
//
// Events due beyond the window (watchdog and sampler daemons and a few
// long delays, under 0.2% of pushes in the benchmark sweeps) wait in a
// flat four-ary min-heap ordered by (cycle, seq). Whenever the clock
// advances, the far events the window now reaches move into their slots
// in heap order, before any callback of the new cycle runs. Every later
// push to such a cycle lands in the wheel behind them, so each list
// stays in seq order and dispatch order is exactly (cycle, seq). The
// window test is c-Now < wheelSize, which cannot wrap at the top of the
// Cycle range the way a window end of Now+wheelSize would.
//
// A container/heap queue, whose Push(any)/Pop() any boxes every event,
// lives on in order_test.go as the executable specification: the
// ordering property test and FuzzEngineOrder require both to dispatch
// in identical (cycle, seq) order, with delays that cross the window
// edge.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in GPU core cycles.
type Cycle uint64

// event is a single scheduled callback in the far heap.
type event struct {
	at  Cycle
	seq uint64 // tie-breaker: FIFO among events on the same cycle
	fn  func()
	// daemon events (watchdog checks, monitors) never keep the engine
	// alive: when only daemons remain the run is over and they are
	// silently discarded. See AfterDaemon.
	daemon bool
}

// before is the far heap's ordering: (cycle, insertion seq).
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapArity is the fanout of the far heap. Four keeps sift-down depth
// at half a binary heap's while a node's children still span at most
// two cache lines (an event is 32 bytes).
const heapArity = 4

// wheelSize is the number of cycles the timing wheel covers. It is a
// power of two so a cycle's slot is its low bits, and 256 cycles cover
// all but under 0.2% of the delays the models schedule in the benchmark
// sweeps, so the far heap stays small. The occupancy bitmap has
// wheelSize/64 words.
const (
	wheelSize  = 256
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// node is one wheel event in the slab. A wheel event needs no cycle or
// seq: its slot and the window fix the cycle, and its list position
// fixes the order among that cycle's events.
type node struct {
	fn     func()
	next   uint32 // next node on the slot's list or the free list; 0 ends it
	daemon bool
}

// Engine is a discrete-event simulator clock and event queue.
// The zero value is ready to use.
type Engine struct {
	now Cycle
	seq uint64
	// The wheel: slot c&wheelMask lists the events due at cycle c, for
	// each c in [now, now+wheelSize). head and tail index nodes; node 0
	// is a sentinel so that index 0 means "none" and the zero Engine
	// needs no set-up. A slot is empty iff its occ bit is clear, and
	// tail[s] is meaningful only while it is set.
	nodes      []node
	free       uint32 // head of the free-node list
	head, tail [wheelSize]uint32
	occ        [wheelWords]uint64
	wheelLen   int
	// far holds the events due at or after now+wheelSize: a flat
	// four-ary min-heap, minimum at far[0].
	far []event
	// dispatched counts events executed since construction; useful for
	// progress reporting and runaway detection in tests.
	dispatched uint64
	// aborted stops Step from executing further events; see Abort.
	aborted bool
	// daemons counts queued daemon events; see AfterDaemon.
	daemons int
}

// NewEngine returns an engine with clock at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// schedule queues fn at cycle c (c >= now) under the next seq.
func (e *Engine) schedule(c Cycle, fn func(), daemon bool) {
	e.seq++
	if c-e.now < wheelSize {
		e.link(c, fn, daemon)
		return
	}
	e.pushFar(event{at: c, seq: e.seq, fn: fn, daemon: daemon})
}

// link appends an event due at cycle c, which must lie in the window, to
// its slot's list, taking a node from the free list. The slab grows only
// when the free list is empty, so it never holds more nodes than the
// most wheel events ever queued at once.
func (e *Engine) link(c Cycle, fn func(), daemon bool) {
	if e.free == 0 {
		e.grow()
	}
	i := e.free
	n := &e.nodes[i]
	e.free = n.next
	*n = node{fn: fn, daemon: daemon}
	s := uint(c) & wheelMask
	if bit := uint64(1) << (s & 63); e.occ[s>>6]&bit == 0 {
		e.occ[s>>6] |= bit
		e.head[s] = i
	} else {
		e.nodes[e.tail[s]].next = i
	}
	e.tail[s] = i
	e.wheelLen++
}

// grow appends one node to the slab and puts it on the free list.
func (e *Engine) grow() {
	if len(e.nodes) == 0 {
		e.nodes = append(e.nodes, node{}) // the sentinel
	}
	e.free = uint32(len(e.nodes))
	e.nodes = append(e.nodes, node{})
}

// nextDist returns how many cycles past now the first non-empty slot
// lies. The wheel must not be empty.
func (e *Engine) nextDist() Cycle {
	p := uint(e.now) & wheelMask
	w := p >> 6
	if b := e.occ[w] >> (p & 63); b != 0 {
		return Cycle(bits.TrailingZeros64(b))
	}
	// The rest of word w is empty; scan the following words, wrapping
	// round to word w, whose bits below p are the wheel's last slots.
	d := 64 - p&63
	for k := uint(1); k <= wheelWords; k++ {
		if b := e.occ[(w+k)%wheelWords]; b != 0 {
			return Cycle(d + uint(bits.TrailingZeros64(b)))
		}
		d += 64
	}
	panic("sim: empty timing wheel")
}

// advance moves the clock to the next cycle with a queued event and
// brings the far events the window now reaches into their slots.
func (e *Engine) advance() {
	if e.wheelLen == 0 {
		e.now = e.far[0].at
	} else {
		e.now += e.nextDist()
	}
	for len(e.far) > 0 && e.far[0].at-e.now < wheelSize {
		ev := e.popFar()
		e.link(ev.at, ev.fn, ev.daemon)
	}
}

// pushFar inserts ev into the far heap.
func (e *Engine) pushFar(ev event) {
	e.far = append(e.far, ev)
	// Sift up with a hole: shift parents down until ev's slot is found,
	// writing ev once instead of swapping at every level.
	h := e.far
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// popFar removes and returns the far heap's minimum event.
func (e *Engine) popFar() event {
	h := e.far
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn for GC
	e.far = h[:n]
	if n > 0 {
		// Sift last down from the root with a hole.
		h = e.far
		i := 0
		for {
			c := i*heapArity + 1
			if c >= n {
				break
			}
			end := c + heapArity
			if end > n {
				end = n
			}
			m := c
			for c++; c < end; c++ {
				if h[c].before(h[m]) {
					m = c
				}
			}
			if !h[m].before(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Dispatched returns the number of events executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Sequence returns the number of events ever scheduled. Two calls
// bracketing a stretch of model code return the same value iff nothing
// was scheduled in between; the DRAM model uses that as the witness
// that coalescing a new same-cycle completion onto the previously
// pushed batch event preserves dispatch order exactly.
func (e *Engine) Sequence() uint64 { return e.seq }

// Pending returns the number of queued events that keep the simulation
// alive. Daemon events are excluded: a model is drained when Pending
// reaches zero even if a watchdog check is still armed.
func (e *Engine) Pending() int { return e.wheelLen + len(e.far) - e.daemons }

// At schedules fn to run at absolute cycle c. Scheduling in the past
// (c < Now) panics: it always indicates a model bug, and silently
// reordering time would destroy determinism.
func (e *Engine) At(c Cycle, fn func()) {
	if c < e.now {
		panic("sim: event scheduled in the past")
	}
	e.schedule(c, fn, false)
}

// After schedules fn to run d cycles from now. After(0, fn) runs fn later
// on the current cycle, after all callbacks scheduled before it. A delay
// so large that now+d wraps the Cycle type panics (the same guard
// AfterDaemon has): silently wrapping would either schedule the event
// absurdly early or trip At's scheduled-in-the-past panic with a message
// blaming the wrong bug.
func (e *Engine) After(d uint64, fn func()) {
	c := e.now + Cycle(d)
	if c < e.now {
		panic("sim: event cycle overflow")
	}
	e.At(c, fn)
}

// AfterDaemon schedules fn like After, but as a daemon: it fires only
// while non-daemon work remains queued, and once daemons are the only
// events left the run ends with them undispatched. Use it for periodic
// observers (watchdog checks) that must never extend a simulation past
// its real work or hold it alive.
func (e *Engine) AfterDaemon(d uint64, fn func()) {
	c := e.now + Cycle(d)
	if c < e.now {
		panic("sim: daemon event cycle overflow")
	}
	e.schedule(c, fn, true)
	e.daemons++
}

// Abort makes the engine refuse to execute further events: Step (and
// therefore Run and its variants) returns false from now on, with any
// remaining events left in the queue. The watchdog uses it to halt a
// livelocked simulation so Run can return a diagnostic instead of
// spinning forever.
func (e *Engine) Abort() { e.aborted = true }

// Step executes the next event, advancing the clock to its cycle.
// It reports whether an event was executed. When only daemon events
// remain the simulation is over: Step reports false without running
// them.
func (e *Engine) Step() bool {
	if e.aborted || e.wheelLen+len(e.far) == e.daemons {
		return false
	}
	s := uint(e.now) & wheelMask
	if e.occ[s>>6]&(1<<(s&63)) == 0 {
		e.advance()
		s = uint(e.now) & wheelMask
	}
	i := e.head[s]
	n := &e.nodes[i]
	fn := n.fn
	if n.daemon {
		e.daemons--
	}
	e.head[s] = n.next
	if n.next == 0 {
		e.occ[s>>6] &^= 1 << (s & 63)
	}
	n.fn, n.next = nil, e.free // release fn for GC
	e.free = i
	e.wheelLen--
	e.dispatched++
	fn()
	return true
}

// Run executes events until the queue is empty and returns the final
// cycle. Simulations terminate naturally when no component schedules
// further work.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// DefaultInterruptStride is how many events RunWithInterrupt executes
// between interrupt checks when the caller passes 0. Checking a context
// is cheap but not free; at this stride the overhead is unmeasurable
// while cancellation latency stays well under a millisecond of wall
// time.
const DefaultInterruptStride = 8192

// RunWithInterrupt executes events like Run, but polls interrupted
// every stride dispatched events; when it reports true the engine is
// aborted (remaining events stay queued) and RunWithInterrupt returns.
// It is how a cancelled context actually stops a simulation: the
// caller passes func() bool { return ctx.Err() != nil }.
func (e *Engine) RunWithInterrupt(stride uint64, interrupted func() bool) Cycle {
	if stride == 0 {
		stride = DefaultInterruptStride
	}
	for {
		if e.RunFor(stride) < stride {
			// Queue drained (or a previous interrupt aborted us).
			return e.now
		}
		if interrupted() {
			e.Abort()
			return e.now
		}
	}
}

// RunFor executes at most n events, returning the number executed. It is
// a guard for tests that must not loop forever on a buggy model.
func (e *Engine) RunFor(n uint64) uint64 {
	var done uint64
	for done < n && e.Step() {
		done++
	}
	return done
}
