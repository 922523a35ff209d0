package sim

import "fmt"

// WatchdogConfig describes a no-progress watchdog for a simulation.
// Every Interval cycles the watchdog samples a progress counter; if
// the counter has not moved since the previous check while the model
// still reports pending work, the simulation is livelocked (or
// deadlocked behind self-rearming events) and OnStall fires.
type WatchdogConfig struct {
	// Interval is the check period in cycles. Must be positive.
	Interval uint64
	// Progress returns a monotonically non-decreasing count of useful
	// work completed (e.g. instructions retired + walks finished).
	Progress func() uint64
	// Pending reports whether the model still has outstanding work.
	// Without it, a quiet engine queue simply ends the run — and the
	// watchdog — naturally.
	Pending func() bool
	// OnStall runs once when no progress was made across a full
	// interval with work pending. It should dump diagnostics and abort
	// the engine; the watchdog stops rearming afterwards.
	OnStall func(w *Watchdog)
}

// Watchdog is an armed no-progress detector. Create with StartWatchdog.
type Watchdog struct {
	eng  *Engine
	cfg  WatchdogConfig
	last uint64
}

// StartWatchdog arms a watchdog on the engine. Checks are daemon
// events: they fire only while real work is queued and never keep an
// otherwise-finished simulation alive or stretch its final cycle to
// the next check boundary.
func StartWatchdog(eng *Engine, cfg WatchdogConfig) *Watchdog {
	if cfg.Interval == 0 {
		panic("sim: watchdog Interval must be positive")
	}
	if cfg.Progress == nil || cfg.Pending == nil || cfg.OnStall == nil {
		panic("sim: watchdog requires Progress, Pending and OnStall")
	}
	w := &Watchdog{eng: eng, cfg: cfg, last: cfg.Progress()}
	eng.AfterDaemon(cfg.Interval, w.check)
	return w
}

func (w *Watchdog) check() {
	cur := w.cfg.Progress()
	if cur == w.last && w.cfg.Pending() {
		w.cfg.OnStall(w)
		return
	}
	w.last = cur
	// Rearm only while real work is queued (daemon events don't count):
	// once the simulation drains, the watchdog must let it end. A model
	// that drains its event queue with work still pending is a deadlock,
	// which the caller's own post-run check reports.
	if w.eng.Pending() > 0 {
		w.eng.AfterDaemon(w.cfg.Interval, w.check)
	}
}

// StallError describes a watchdog trip: the cycle it fired, the stuck
// progress count, and a model-supplied dump of every queue.
type StallError struct {
	At       Cycle
	Progress uint64
	Interval uint64
	Dump     string
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("sim: no progress for %d cycles at cycle %d (progress=%d) — pipeline wedged\n%s",
		e.Interval, e.At, e.Progress, e.Dump)
}
