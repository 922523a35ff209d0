package jobd

import (
	"context"
	"sync/atomic"
	"time"
)

// ItemProgress is one live progress report from a running item. jobd is
// simulation-agnostic, so the fields are deliberately generic: Cycles
// is "simulated time units so far", Done/Total are "work units"
// (instructions for gpuwalk), Walks counts whatever secondary events
// the runner cares to report. Runners fetch the per-item sink with
// ProgressSink and may call it from any goroutine.
type ItemProgress struct {
	Cycles uint64 `json:"cycles"`
	Done   uint64 `json:"done"`
	Total  uint64 `json:"total"`
	Walks  uint64 `json:"walks"`
}

// progressCtxKey carries the per-item progress sink through the
// Runner's context.
type progressCtxKey struct{}

// withProgress attaches a progress sink to ctx for ProgressSink to
// find.
func withProgress(ctx context.Context, fn func(ItemProgress)) context.Context {
	return context.WithValue(ctx, progressCtxKey{}, fn)
}

// ProgressSink extracts the live progress sink jobd attached to a
// Runner's context, or nil when the item is not tracked (tests,
// detached use). The sink is safe to call from the simulation
// goroutine: every write lands in atomics, never a lock.
func ProgressSink(ctx context.Context) func(ItemProgress) {
	fn, _ := ctx.Value(progressCtxKey{}).(func(ItemProgress))
	return fn
}

// progressTracker is a job's live telemetry. All fields are atomics so
// the simulation goroutine publishes without locks and HTTP handlers
// sample without stalling it. item/itemStart are set by the worker
// when an item begins; the rest by the runner's sink.
type progressTracker struct {
	item      atomic.Int64  // index of the item currently running
	itemStart atomic.Int64  // unix nanos when that item started
	cycles    atomic.Uint64 // simulated cycles of the current item
	done      atomic.Uint64 // work units done within the current item
	total     atomic.Uint64 // work units total within the current item
	walks     atomic.Uint64 // secondary event count (page walks)
	updated   atomic.Int64  // unix nanos of the last sink call; 0 = never
}

// beginItem resets per-item counters when a new item starts running.
func (p *progressTracker) beginItem(index int, now time.Time) {
	p.item.Store(int64(index))
	p.itemStart.Store(now.UnixNano())
	p.cycles.Store(0)
	p.done.Store(0)
	p.total.Store(0)
	p.walks.Store(0)
}

// sink records one report. Called from the simulation goroutine.
func (p *progressTracker) sink(pr ItemProgress) {
	p.cycles.Store(pr.Cycles)
	p.done.Store(pr.Done)
	p.total.Store(pr.Total)
	p.walks.Store(pr.Walks)
	p.updated.Store(time.Now().UnixNano())
}

// ProgressView is the wire representation of a job's live telemetry,
// surfaced on GET /v1/jobs/{id} while the job runs and in `progress`
// SSE events. Rates are since-item-start averages, not instantaneous.
type ProgressView struct {
	// Item is the index of the item the rates describe.
	Item int `json:"item"`
	// Cycles is the simulated cycle count of the current item so far.
	Cycles uint64 `json:"cycles"`
	// Done/Total are the current item's work units (instructions).
	Done  uint64 `json:"done"`
	Total uint64 `json:"total"`
	// Walks counts the current item's completed page walks.
	Walks uint64 `json:"walks,omitempty"`
	// CyclesPerSecond is the mean simulation rate since the item began.
	CyclesPerSecond float64 `json:"cycles_per_second,omitempty"`
	// ETASeconds extrapolates Done/Total at the current mean rate;
	// omitted until the run has made measurable forward progress.
	ETASeconds float64 `json:"eta_seconds,omitempty"`
	// Updated is when the runner last reported.
	Updated time.Time `json:"updated"`
}

// snapshot builds a ProgressView from the tracker's atomics, or nil if
// the runner never reported. now supplies the rate denominator.
func (p *progressTracker) snapshot(now time.Time) *ProgressView {
	updated := p.updated.Load()
	if updated == 0 {
		return nil
	}
	v := &ProgressView{
		Item:    int(p.item.Load()),
		Cycles:  p.cycles.Load(),
		Done:    p.done.Load(),
		Total:   p.total.Load(),
		Walks:   p.walks.Load(),
		Updated: time.Unix(0, updated),
	}
	elapsed := now.Sub(time.Unix(0, p.itemStart.Load())).Seconds()
	if elapsed > 0 && v.Cycles > 0 {
		v.CyclesPerSecond = float64(v.Cycles) / elapsed
		if v.Total > v.Done && v.Done > 0 {
			// Work units per second, extrapolated over what's left.
			rate := float64(v.Done) / elapsed
			v.ETASeconds = float64(v.Total-v.Done) / rate
		}
	}
	return v
}
