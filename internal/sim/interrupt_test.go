package sim

import "testing"

func TestRunWithInterruptDrains(t *testing.T) {
	e := NewEngine()
	var ran int
	for i := 0; i < 100; i++ {
		e.After(uint64(i), func() { ran++ })
	}
	e.RunWithInterrupt(10, func() bool { return false })
	if ran != 100 {
		t.Fatalf("ran %d events, want 100", ran)
	}
	if e.aborted {
		t.Fatal("engine aborted without an interrupt")
	}
}

func TestRunWithInterruptStops(t *testing.T) {
	e := NewEngine()
	var ran int
	var chain func()
	chain = func() {
		ran++
		e.After(1, chain) // self-perpetuating: only an interrupt ends it
	}
	e.After(0, chain)
	stop := false
	e.RunWithInterrupt(50, func() bool { return stop || ran >= 200 })
	if !e.aborted {
		t.Fatal("interrupt did not abort the engine")
	}
	// The interrupt is polled every 50 events, so the engine stops at
	// the first poll boundary at or after 200.
	if ran < 200 || ran > 250 {
		t.Fatalf("ran %d events, want within one stride of 200", ran)
	}
	// An aborted engine refuses further work.
	if e.Step() {
		t.Fatal("Step ran an event after abort")
	}
}

func TestRunWithInterruptZeroStride(t *testing.T) {
	e := NewEngine()
	done := false
	e.After(5, func() { done = true })
	e.RunWithInterrupt(0, func() bool { return false })
	if !done {
		t.Fatal("default stride failed to drain queue")
	}
}
