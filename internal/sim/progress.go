package sim

// StartProgressPublisher arms a periodic progress publisher on the
// engine: publish runs every `every` cycles for as long as real
// (non-daemon) work remains queued. The simulator's progress hook and
// its metrics sampler both run on it. It reuses the watchdog's daemon
// plumbing, so the publisher never keeps a drained simulation alive or
// stretches its final cycle to the next publication boundary — when
// only daemons remain, the run ends and the pending publication is
// silently discarded.
//
// publish runs on the simulation goroutine and must not mutate model
// state; the usual patterns are copying a few counters into atomics that
// another goroutine (an HTTP handler, a TUI) samples at its leisure, or
// appending a row to a metrics registry.
func StartProgressPublisher(eng *Engine, every uint64, publish func()) {
	if every == 0 {
		panic("sim: progress publisher interval must be positive")
	}
	if publish == nil {
		panic("sim: progress publisher requires a publish func")
	}
	var tick func()
	tick = func() {
		publish()
		if eng.Pending() > 0 {
			eng.AfterDaemon(every, tick)
		}
	}
	eng.AfterDaemon(every, tick)
}
