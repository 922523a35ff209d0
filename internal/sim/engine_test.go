package sim

import (
	"fmt"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if final := e.Run(); final != 30 {
		t.Errorf("final cycle = %d, want 30", final)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOTies(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: got[%d] = %d", i, v)
		}
	}
}

func TestEngineAfterZero(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, func() {
		got = append(got, "a")
		// After(0) runs later on the same cycle, after already-queued
		// same-cycle events.
		e.After(0, func() { got = append(got, "c") })
	})
	e.At(10, func() { got = append(got, "b") })
	e.Run()
	want := "abc"
	have := ""
	for _, s := range got {
		have += s
	}
	if have != want {
		t.Errorf("execution order = %q, want %q", have, want)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %d, want 10", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 10 {
			e.After(5, rec)
		}
	}
	e.After(1, rec)
	e.Run()
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
	if e.Now() != 1+9*5 {
		t.Errorf("Now = %d, want %d", e.Now(), 1+9*5)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// TestEngineAfterOverflowPanics is the regression test for the cycle
// overflow bug: After with a delay huge enough to wrap the Cycle type
// used to wrap past Now and panic inside At with the misleading "event
// scheduled in the past" (or, worse, wrap to a plausible future cycle
// and silently reorder time). It must panic with the overflow message,
// like AfterDaemon always has.
func TestEngineAfterOverflowPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run() // advance the clock so now > 0
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("After with a wrapping delay did not panic")
		}
		if msg, ok := r.(string); !ok || msg != "sim: event cycle overflow" {
			t.Fatalf("panic = %v, want the cycle-overflow message", r)
		}
	}()
	e.After(^uint64(0), func() {})
}

// TestEngineAfterOverflowWrapsPastNow covers a wrap that lands close
// below now, where the old code fell through to At and blamed a
// non-existent scheduled-in-the-past model bug. (A wrapped cycle always
// lands below now — overflow means c = d - (2^64 - now) <= now-1 — so
// the c < now guard in After catches every overflow.)
func TestEngineAfterOverflowWrapsPastNow(t *testing.T) {
	e := NewEngine()
	e.At(1000, func() {})
	e.Run()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || msg != "sim: event cycle overflow" {
			t.Fatalf("panic = %v, want the cycle-overflow message, not the in-the-past one", r)
		}
	}()
	// now + delay wraps to cycle 500 = now-500.
	e.After(^uint64(0)-499, func() {})
}

func TestEngineAfterDaemonOverflowPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || msg != "sim: daemon event cycle overflow" {
			t.Fatalf("panic = %v, want the daemon cycle-overflow message", r)
		}
	}()
	e.AfterDaemon(^uint64(0), func() {})
}

func TestRunFor(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Cycle(i), func() {})
	}
	if n := e.RunFor(3); n != 3 {
		t.Errorf("RunFor(3) = %d", n)
	}
	if n := e.RunFor(100); n != 2 {
		t.Errorf("RunFor(100) after partial run = %d, want 2", n)
	}
}

func TestDispatchedAndPending(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Dispatched() != 2 {
		t.Errorf("Dispatched = %d, want 2", e.Dispatched())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending after run = %d", e.Pending())
	}
}

// TestIntegrator: only cycles at value zero count, however the value
// got there.
func TestIntegrator(t *testing.T) {
	var g Integrator
	g.Arm(0)
	g.Add(0, 2)
	g.Add(10, 3)  // 5 from 10 on
	g.Add(20, -5) // 0 from 20 on
	g.Finish(30)  // 0 for 10 cycles
	if got := g.ZeroCycles(); got != 10 {
		t.Errorf("ZeroCycles = %d, want 10", got)
	}
}

func TestIntegratorZeroCycles(t *testing.T) {
	var g Integrator
	g.Arm(0)
	g.Add(5, 1)   // 0..5 at zero while armed = 5
	g.Add(15, -1) // busy 5..15
	g.Disarm(25)  // 15..25 at zero while armed = 10
	g.Add(30, 0)  // disarmed: not counted
	g.Finish(40)
	if got := g.ZeroCycles(); got != 15 {
		t.Errorf("ZeroCycles = %d, want 15", got)
	}
}

// TestIntegratorAdd: changes made before Arm set the value that the
// accounting starts from.
func TestIntegratorAdd(t *testing.T) {
	var g Integrator
	g.Add(0, 3)
	g.Add(10, -3) // 0 from 10 on, not yet armed
	g.Arm(15)
	g.Add(17, 1)
	g.Finish(20)
	if got := g.ZeroCycles(); got != 2 {
		t.Errorf("ZeroCycles = %d, want 2", got)
	}
}

func TestIntegratorBackwardsPanics(t *testing.T) {
	var g Integrator
	g.Add(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	g.Add(5, 1)
}

func TestPort(t *testing.T) {
	p := Port{Cycles: 3}
	if got := p.Acquire(10); got != 10 {
		t.Errorf("first Acquire = %d, want 10", got)
	}
	if got := p.Acquire(10); got != 13 {
		t.Errorf("second Acquire = %d, want 13", got)
	}
	if got := p.Acquire(100); got != 100 {
		t.Errorf("late Acquire = %d, want 100", got)
	}
	if got := p.Acquire(101); got != 103 {
		t.Errorf("busy Acquire = %d, want 103", got)
	}
	if got := p.Acquire(200); got != 200 {
		t.Errorf("idle Acquire = %d, want 200", got)
	}
}

func TestPortUnlimited(t *testing.T) {
	var p Port // Cycles == 0
	for i := 0; i < 10; i++ {
		if got := p.Acquire(7); got != 7 {
			t.Fatalf("unlimited port Acquire = %d, want 7", got)
		}
	}
}

// TestEngineSameCycleInsertionOrder pins the tie-breaking contract the
// whole simulator's determinism rests on: events scheduled for the
// same cycle fire in exactly the order they were inserted, even when
// the insertions are interleaved with events for other cycles and
// issued from inside running callbacks.
func TestEngineSameCycleInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	// Interleave insertions for cycles 50 and 60 so heap sift order
	// differs from insertion order.
	e.At(60, func() { got = append(got, 104) })
	e.At(50, func() { got = append(got, 1) })
	e.At(60, func() { got = append(got, 105) })
	e.At(50, func() { got = append(got, 2) })
	e.At(50, func() {
		got = append(got, 3)
		// Scheduled mid-run for an already-populated future cycle:
		// must fire after everything queued for 60 so far.
		e.At(60, func() { got = append(got, 106) })
	})
	e.At(60, func() { got = append(got, 103) })
	e.Run()
	want := []int{1, 2, 3, 104, 105, 103, 106}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-cycle order = %v, want %v", got, want)
		}
	}
}

func TestEngineAbort(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() {
		ran++
		e.Abort()
	})
	e.At(30, func() { ran++ })
	final := e.Run()
	if ran != 2 {
		t.Errorf("ran = %d events, want 2 (abort must stop the third)", ran)
	}
	if final != 20 {
		t.Errorf("final cycle = %d, want 20", final)
	}
	if !e.aborted {
		t.Error("aborted = false after Abort")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 event left behind", e.Pending())
	}
	if e.Step() {
		t.Error("Step executed an event after Abort")
	}
}

// TestEngineDaemonEvents pins daemon semantics: a daemon fires while
// real work remains, is excluded from Pending, and cannot keep the
// engine alive — the run ends at the last real event.
func TestEngineDaemonEvents(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.After(10, func() { fired = append(fired, "work") })
	e.AfterDaemon(5, func() { fired = append(fired, "daemon") })
	e.AfterDaemon(100, func() { fired = append(fired, "late-daemon") })
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1 (daemons excluded)", e.Pending())
	}
	final := e.Run()
	if got, want := fmt.Sprint(fired), "[daemon work]"; got != want {
		t.Errorf("fired %v, want %v", got, want)
	}
	if final != 10 {
		t.Errorf("run ended at cycle %d, want 10 (late daemon must not extend it)", final)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after drain, want 0", e.Pending())
	}
}

// TestEngineTopOfCycleRange schedules onto the last two cycles the Cycle
// type holds. A window end computed as now+wheelSize wraps there and
// would strand both events in the far heap, so the wheel must treat its
// window as reaching the top of the range.
func TestEngineTopOfCycleRange(t *testing.T) {
	e := NewEngine()
	top := ^Cycle(0)
	var got []string
	e.At(top-1, func() {
		got = append(got, "a")
		e.After(0, func() { got = append(got, "c") })
	})
	e.At(top, func() { got = append(got, "b") })
	if final := e.Run(); final != top {
		t.Errorf("final cycle = %d, want %d", final, top)
	}
	if got, want := fmt.Sprint(got), "[a c b]"; got != want {
		t.Errorf("dispatch order %s, want %s", got, want)
	}
	if e.Pending() != 0 || e.Dispatched() != 3 {
		t.Errorf("Pending = %d, Dispatched = %d; want 0 and 3", e.Pending(), e.Dispatched())
	}
}

// TestEngineStormAllocs drives the load the timing wheel is shaped for:
// a burst of events that keeps re-arming onto one future cycle, as
// DRAM's stale channel ticks do. Once the burst is queued, dispatching
// allocates nothing, and the node slab holds no more nodes than the most
// events ever queued at once (plus its sentinel).
func TestEngineStormAllocs(t *testing.T) {
	const burst, cycles = 2000, 10000
	e := NewEngine()
	peak := 0
	var rearm func()
	rearm = func() {
		e.After(1, rearm)
		if q := e.Pending(); q > peak {
			peak = q
		}
	}
	for i := 0; i < burst; i++ {
		e.At(1, rearm)
	}
	peak = e.Pending()
	// AllocsPerRun adds one warm-up run, so this dispatches exactly
	// cycles cycles of the burst.
	allocs := testing.AllocsPerRun(cycles-1, func() {
		if n := e.RunFor(burst); n != burst {
			t.Fatalf("RunFor dispatched %d events, want %d", n, burst)
		}
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per %d-event cycle, want 0", allocs, burst)
	}
	if e.Now() != cycles || e.Pending() != burst {
		t.Errorf("Now = %d, Pending = %d; want %d and %d", e.Now(), e.Pending(), cycles, burst)
	}
	if n := len(e.nodes) - 1; n > peak {
		t.Errorf("node slab grew to %d nodes for a peak of %d queued events", n, peak)
	}
}
