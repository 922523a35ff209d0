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
// The event queue is a flat four-ary min-heap specialized to the event
// struct. It stores events inline in one slice, sifts with a hole (one
// write per level instead of a three-write swap), and the four-ary
// fanout halves the tree depth that pop-side sift-down traverses, at
// the cost of up to four comparisons per level — a good trade because
// the comparisons stay within one or two cache lines. A container/heap
// queue, whose Push(any)/Pop() any boxes every event, lives on in
// order_test.go as the executable specification: the ordering property
// test and FuzzEngineOrder require both to dispatch in identical
// (cycle, seq) order.
package sim

// Cycle is a point in simulated time, measured in GPU core cycles.
type Cycle uint64

// event is a single scheduled callback.
type event struct {
	at  Cycle
	seq uint64 // tie-breaker: FIFO among events on the same cycle
	fn  func()
	// daemon events (watchdog checks, monitors) never keep the engine
	// alive: when only daemons remain the run is over and they are
	// silently discarded. See AfterDaemon.
	daemon bool
}

// before is the queue ordering: (cycle, insertion seq).
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapArity is the fanout of the flat heap. Four keeps sift-down depth
// at half a binary heap's while a node's children still span at most
// two cache lines (an event is 32 bytes).
const heapArity = 4

// Engine is a discrete-event simulator clock and event queue.
// The zero value is ready to use.
type Engine struct {
	now    Cycle
	seq    uint64
	events []event // flat four-ary min-heap, minimum at events[0]
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

// push inserts ev into the queue.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	// Sift up with a hole: shift parents down until ev's slot is found,
	// writing ev once instead of swapping at every level.
	h := e.events
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

// pop removes and returns the minimum event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn for GC
	e.events = h[:n]
	if n > 0 {
		// Sift last down from the root with a hole.
		h = e.events
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
func (e *Engine) Pending() int { return len(e.events) - e.daemons }

// At schedules fn to run at absolute cycle c. Scheduling in the past
// (c < Now) panics: it always indicates a model bug, and silently
// reordering time would destroy determinism.
func (e *Engine) At(c Cycle, fn func()) {
	if c < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.push(event{at: c, seq: e.seq, fn: fn})
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
	e.seq++
	e.push(event{at: c, seq: e.seq, fn: fn, daemon: true})
	e.daemons++
}

// Abort makes the engine refuse to execute further events: Step (and
// therefore Run and its variants) returns false from now on, with any
// remaining events left in the queue. The watchdog uses it to halt a
// livelocked simulation so Run can return a diagnostic instead of
// spinning forever.
func (e *Engine) Abort() { e.aborted = true }

// Aborted reports whether Abort has been called.
func (e *Engine) Aborted() bool { return e.aborted }

// Step executes the next event, advancing the clock to its cycle.
// It reports whether an event was executed. When only daemon events
// remain the simulation is over: Step reports false without running
// them.
func (e *Engine) Step() bool {
	if e.aborted || len(e.events) == e.daemons {
		return false
	}
	ev := e.pop()
	if ev.daemon {
		e.daemons--
	}
	e.now = ev.at
	e.dispatched++
	ev.fn()
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
