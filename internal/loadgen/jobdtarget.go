package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gpuwalk/internal/jobd"
)

// JobdTarget drives a jobd server (gpuwalkd): each op POSTs the spec
// the op's key selects from a fixed population, so key popularity maps
// directly onto config popularity — a zipfian key stream exercises the
// result cache exactly the way skewed user traffic would.
//
// The op's measured phase is the submit round-trip. Every SSEEvery-th
// accepted job additionally gets a background SSE watcher measuring
// time-to-first-`progress`. Finish waits for every accepted job to
// reach a terminal state and tallies cache hits.
type JobdTarget struct {
	// Client speaks to the server. Required.
	Client *jobd.Client
	// Specs is the config population; op key k submits Specs[k % len].
	// Required, non-empty.
	Specs [][]byte
	// SSEEvery samples time-to-first-progress on every Nth op
	// (deterministically by op sequence number). 0 disables sampling.
	SSEEvery int
	// Priority is passed through on every submission.
	Priority int
	// WaitPoll is Finish's per-job polling cadence. Defaults to 25ms.
	WaitPoll time.Duration

	mu  sync.Mutex
	ids []string

	sse           sync.WaitGroup
	firstProgress LatencyHist
	sseSampled    atomic.Int64
	sseNoProgress atomic.Int64
	sseErrors     atomic.Int64
}

// NewJobdTarget returns a target submitting the given spec population
// through c.
func NewJobdTarget(c *jobd.Client, specs [][]byte) *JobdTarget {
	return &JobdTarget{Client: c, Specs: specs}
}

// Do submits one job. Backpressure (429/503) is reported as a
// rejection, never as a latency sample or an error.
func (t *JobdTarget) Do(ctx context.Context, op Op) OpResult {
	spec := t.Specs[op.Key%uint64(len(t.Specs))]
	v, err := t.Client.Submit(ctx, jobd.SubmitRequest{Spec: spec, Priority: t.Priority})
	if err != nil {
		if errors.Is(err, jobd.ErrQueueFull) || errors.Is(err, jobd.ErrDraining) {
			return OpResult{Rejected: true}
		}
		return OpResult{Err: err}
	}
	t.mu.Lock()
	t.ids = append(t.ids, v.ID)
	t.mu.Unlock()
	if t.SSEEvery > 0 && op.Seq%t.SSEEvery == 0 {
		t.sseSampled.Add(1)
		t.sse.Add(1)
		go func() {
			defer t.sse.Done()
			d, seen, err := t.Client.FirstProgress(ctx, v.ID)
			switch {
			case err != nil:
				t.sseErrors.Add(1)
			case !seen:
				// Normal for cache hits: no simulation, no progress.
				t.sseNoProgress.Add(1)
			default:
				t.firstProgress.Observe(d)
			}
		}()
	}
	return OpResult{}
}

// TargetStats is Finish's account of everything the run submitted.
type TargetStats struct {
	// Jobs is the number of accepted submissions.
	Jobs int `json:"jobs"`
	// Done/Failed/Cancelled count terminal outcomes; Evicted counts
	// jobs the server no longer retained when Finish looked.
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Evicted   int `json:"evicted"`
	// ItemsDone and CacheHits aggregate over job items; their ratio is
	// the cache hit rate the key distribution's skew produced.
	ItemsDone    int     `json:"items_done"`
	CacheHits    int     `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// FirstProgress is the SSE time-to-first-progress distribution
	// over sampled jobs that reported progress.
	FirstProgress LatencySummary `json:"first_progress"`
	SSESampled    int            `json:"sse_sampled"`
	SSENoProgress int            `json:"sse_no_progress"`
	SSEErrors     int            `json:"sse_errors"`
}

// Finish waits until every accepted job reaches a terminal state (or
// ctx expires), waits for the SSE watchers, and returns the tallies.
// Jobs are awaited one by one in admission order, so draining costs
// one small GET per poll rather than listing the whole job table.
func (t *JobdTarget) Finish(ctx context.Context) (TargetStats, error) {
	t.mu.Lock()
	ids := append([]string(nil), t.ids...)
	t.mu.Unlock()

	st := TargetStats{Jobs: len(ids)}
	for _, id := range ids {
		v, err := t.Client.WaitTerminal(ctx, id, t.WaitPoll)
		if errors.Is(err, jobd.ErrNotFound) {
			// The server's RetainJobs bound evicted it; its items
			// finished (eviction only takes terminal jobs) but the
			// cache tally is lost.
			st.Evicted++
			continue
		}
		if err != nil {
			return st, fmt.Errorf("loadgen: waiting for job %s: %w", id, err)
		}
		switch v.State {
		case jobd.StateDone:
			st.Done++
		case jobd.StateFailed:
			st.Failed++
		case jobd.StateCancelled:
			st.Cancelled++
		}
		st.ItemsDone += v.ItemsDone
		st.CacheHits += v.CacheHits
	}

	// SSE watchers end when their job's stream closes (terminal) or
	// their run ctx is cancelled; bound the wait by this ctx anyway.
	done := make(chan struct{})
	go func() { t.sse.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return st, ctx.Err()
	}

	if st.ItemsDone > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(st.ItemsDone)
	}
	st.FirstProgress = t.firstProgress.Summary()
	st.SSESampled = int(t.sseSampled.Load())
	st.SSENoProgress = int(t.sseNoProgress.Load())
	st.SSEErrors = int(t.sseErrors.Load())
	return st, nil
}
