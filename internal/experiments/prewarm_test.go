package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gpuwalk/internal/core"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/simcache"
)

// TestPrewarmCancelled is the regression test for context-aware
// Prewarm: a cancelled sweep must return promptly with ctx's error,
// must not launch the remaining specs, and must leak no goroutines.
func TestPrewarmCancelled(t *testing.T) {
	before := runtime.NumGoroutine()

	s := microSuite()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work starts

	start := time.Now()
	err := s.Prewarm(ctx, 4, BaselineSpecs())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Prewarm = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled Prewarm took %v", d)
	}
	if n := len(s.runs); n != 0 {
		t.Fatalf("cancelled Prewarm completed %d runs, want 0", n)
	}

	// Give worker goroutines a moment to unwind, then check for leaks.
	// A small tolerance absorbs runtime/test-framework goroutines that
	// come and go on their own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrewarmCancelledMidSweep cancels while the sweep is running and
// checks Prewarm stops early rather than finishing every spec.
func TestPrewarmCancelledMidSweep(t *testing.T) {
	s := microSuite()
	ctx, cancel := context.WithCancel(context.Background())
	specs := BaselineSpecs()
	done := make(chan error, 1)
	go func() { done <- s.Prewarm(ctx, 1, specs) }()
	// Let a run or two start, then cancel.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Prewarm = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Prewarm did not return after cancellation")
	}
	if len(s.runs) == len(specs) {
		t.Fatal("sweep ran to completion despite cancellation")
	}
}

// TestSuitePersist: a second suite with the same parameters and an
// attached store serves runs from disk without re-simulating, and the
// served results are identical to fresh ones.
func TestSuitePersist(t *testing.T) {
	dir := t.TempDir()
	open := func() *simcache.Cache {
		c, err := simcache.Open(dir, simcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	s1 := microSuite()
	s1.SetPersist(open())
	a, err := s1.Run("MVT", core.KindFCFS, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.PersistStats(); st.Puts != 1 || st.Hits != 0 {
		t.Fatalf("first run stats = %+v, want 1 put", st)
	}

	// Fresh suite, fresh store handle: the run must come from disk.
	s2 := microSuite()
	c2 := open()
	s2.SetPersist(c2)
	b, err := s2.Run("MVT", core.KindFCFS, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Hits != 1 || st.Puts != 0 {
		t.Fatalf("second run stats = %+v, want 1 hit, 0 puts", st)
	}
	if a.Cycles != b.Cycles || a.IOMMU.WalksDone != b.IOMMU.WalksDone ||
		a.Instr.AccessHist.Count() != b.Instr.AccessHist.Count() {
		t.Fatal("persisted result differs from fresh run")
	}

	// A different variant is a different key.
	if _, err := s2.Run("MVT", core.KindFCFS, "w16", withWalkers(16)); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Puts != 1 {
		t.Fatalf("variant run stats = %+v, want a fresh put", st)
	}
}

// TestSuitePersistKeyChangesWithModel: a persist key must change when
// any of the suite identity inputs change. The first key is pinned, so
// a change to how keys are canonicalized cannot silently orphan
// paperfigs -resume caches; a gpu.ModelVersion bump re-pins it.
func TestSuitePersistKeyChangesWithModel(t *testing.T) {
	s := microSuite()
	k1, err := s.persistKey("MVT", core.KindFCFS, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := "2e053d5f263a8778a41d7c99436d581e91bc8c10b0fead21cbf30f59cfed06e5"; k1 != want {
		t.Fatalf("persist key = %s, want %s", k1, want)
	}
	k2, err := s.persistKey("MVT", core.KindSIMTAware, "")
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("scheduler kind not in the persist key")
	}
	s2 := microSuite()
	s2.Seed = 999
	k3, err := s2.persistKey("MVT", core.KindFCFS, "")
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Fatal("seed not in the persist key")
	}
	_ = gpu.ModelVersion // the version constant is folded in via persistKey
}
