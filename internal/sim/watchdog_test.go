package sim

import (
	"strings"
	"testing"
)

// TestWatchdogCatchesWedgedPipeline artificially wedges a "pipeline":
// an event that rearms itself forever without completing any work,
// with the model reporting work pending. The watchdog must trip, run
// the diagnostic, abort the engine, and Run must return instead of
// spinning forever.
func TestWatchdogCatchesWedgedPipeline(t *testing.T) {
	e := NewEngine()
	// The wedge: self-rearming polling loop that never makes progress.
	var spin func()
	spin = func() { e.After(10, spin) }
	e.After(10, spin)

	var stalled *StallError
	StartWatchdog(e, WatchdogConfig{
		Interval: 1000,
		Progress: func() uint64 { return 0 }, // nothing ever completes
		Pending:  func() bool { return true },
		OnStall: func(w *Watchdog) {
			stalled = &StallError{
				At:       e.Now(),
				Interval: 1000,
				Dump:     "queueA: 3 stuck requests",
			}
			e.Abort()
		},
	})
	final := e.Run()
	if stalled == nil {
		t.Fatal("watchdog did not trip on a wedged pipeline")
	}
	// The first check at cycle 1000 already sees zero progress.
	if final != 1000 {
		t.Errorf("tripped at cycle %d, want 1000", final)
	}
	if !strings.Contains(stalled.Error(), "queueA: 3 stuck requests") {
		t.Errorf("StallError does not carry the queue dump: %q", stalled.Error())
	}
	if !strings.Contains(stalled.Error(), "no progress for 1000 cycles") {
		t.Errorf("StallError does not name the stall interval: %q", stalled.Error())
	}
}

// TestWatchdogToleratesProgress drives steady progress and checks the
// watchdog never trips and never keeps the simulation alive once real
// work drains.
func TestWatchdogToleratesProgress(t *testing.T) {
	e := NewEngine()
	work := uint64(0)
	var step func()
	step = func() {
		work++
		if work < 50 {
			e.After(700, step) // slower than the interval, but moving
		}
	}
	e.After(1, step)

	StartWatchdog(e, WatchdogConfig{
		Interval: 1000,
		Progress: func() uint64 { return work },
		Pending:  func() bool { return work < 50 },
		OnStall:  func(*Watchdog) { t.Fatal("watchdog tripped despite progress") },
	})
	e.Run()
	if work != 50 {
		t.Errorf("work = %d, want 50", work)
	}
	if e.Pending() != 0 {
		t.Errorf("watchdog left %d events queued after the run drained", e.Pending())
	}
}

// TestWatchdogStallAfterProgress wedges the pipeline only after some
// initial progress, so the trip exercises the last-sample comparison
// rather than the initial zero.
func TestWatchdogStallAfterProgress(t *testing.T) {
	e := NewEngine()
	work := uint64(0)
	var step func()
	step = func() {
		work++
		if work < 5 {
			e.After(100, step)
			return
		}
		// Wedge: keep polling, stop progressing.
		var spin func()
		spin = func() { e.After(10, spin) }
		e.After(10, spin)
	}
	e.After(1, step)

	tripped := false
	StartWatchdog(e, WatchdogConfig{
		Interval: 1000,
		Progress: func() uint64 { return work },
		Pending:  func() bool { return true },
		OnStall: func(*Watchdog) {
			tripped = true
			e.Abort()
		},
	})
	e.Run()
	if !tripped {
		t.Fatal("watchdog missed a stall that began after progress")
	}
	if work != 5 {
		t.Errorf("work = %d, want 5", work)
	}
}

func TestWatchdogConfigPanics(t *testing.T) {
	e := NewEngine()
	for name, cfg := range map[string]WatchdogConfig{
		"zero interval": {Progress: func() uint64 { return 0 }, Pending: func() bool { return false }, OnStall: func(*Watchdog) {}},
		"nil hooks":     {Interval: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: StartWatchdog did not panic", name)
				}
			}()
			StartWatchdog(e, cfg)
		}()
	}
}
