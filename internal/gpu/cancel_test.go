package gpu

import (
	"context"
	"errors"
	"testing"

	"gpuwalk/internal/workload"
)

// TestRunContextCancelled verifies that a context cancelled before the
// run starts stops the simulation immediately with ctx's error.
func TestRunContextCancelled(t *testing.T) {
	tr := tinyTrace(4, func(wf, i int) []uint64 {
		return []uint64{uint64(wf)<<30 | uint64(i)<<12}
	})
	sys, err := NewSystem(tinyParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sys.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidRun cancels after a fixed number of events and
// checks the engine stopped early rather than running to completion.
func TestRunContextCancelMidRun(t *testing.T) {
	// A divergent access pattern gives the run enough events that the
	// first interrupt poll happens mid-flight.
	tr := tinyTrace(16, func(wf, i int) []uint64 {
		lanes := make([]uint64, 16)
		for l := range lanes {
			lanes[l] = uint64(wf)<<32 | uint64(i*16+l)<<14
		}
		return lanes
	})
	full, err := NewSystem(tinyParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}
	total := full.Engine().Dispatched()

	sys, err := NewSystem(tinyParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the simulation so the test is deterministic:
	// after 100 events the next interrupt poll must abort.
	sys.Engine().After(0, func() { cancel() })
	_, err = sys.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if done := sys.Engine().Dispatched(); total > 20000 && done >= total {
		t.Fatalf("cancelled run dispatched all %d events", done)
	}
	// An aborted engine keeps its remaining events and runs none of them.
	if eng := sys.Engine(); eng.Pending() == 0 || eng.Step() {
		t.Fatal("engine not aborted after cancellation")
	}
}

// TestRunBackgroundUnaffected pins the fast path: a Background context
// must not change results versus plain Run (byte-identical metrics).
func TestRunBackgroundUnaffected(t *testing.T) {
	mk := func() *workload.Trace {
		return tinyTrace(4, func(wf, i int) []uint64 {
			return []uint64{uint64(wf)<<30 | uint64(i)<<12}
		})
	}
	a, err := NewSystem(tinyParams(), mk())
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSystem(tinyParams(), mk())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cycles != rb.Cycles || ra.Instructions != rb.Instructions || ra.IOMMU.WalksDone != rb.IOMMU.WalksDone {
		t.Fatalf("Background RunContext diverged: %+v vs %+v", ra.Cycles, rb.Cycles)
	}
}
