package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpuwalk/internal/obs"
	"gpuwalk/internal/obs/httpobs"
)

// Runner executes one job item. It receives the item's opaque spec and
// returns the result payload plus whether it came from a result cache.
// The context carries the job's deadline and the server's lifetime;
// runners must return promptly once it is cancelled. Runners that can
// report live progress should fetch the sink with ProgressSink(ctx)
// and call it as they go. The server never modifies a returned result,
// so runners may return bytes shared with other jobs.
type Runner func(ctx context.Context, spec json.RawMessage) (result json.RawMessage, cacheHit bool, err error)

// Options configures a Server.
type Options struct {
	// Runner executes job items. Required.
	Runner Runner
	// Workers is the worker pool width. Defaults to 1.
	Workers int
	// QueueSize bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected. Defaults to 64. Negative
	// means unbounded.
	QueueSize int
	// RetainJobs bounds how many jobs the server keeps for GET/list
	// after they finish. Under sustained load the job table would
	// otherwise grow without bound (every job lives forever for its
	// result to be fetched); once the table exceeds this many jobs,
	// the oldest *terminal* jobs are evicted — queued and running jobs
	// are never touched, so the live set always stays addressable.
	// Defaults to 4096. Negative means unbounded.
	RetainJobs int
	// DefaultTimeout applies to jobs that do not set their own.
	// Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps per-job timeouts (and applies when a job asks
	// for no deadline). Zero means uncapped.
	MaxTimeout time.Duration
	// Logger receives structured lifecycle logs (accept, start,
	// item_done, finish, drain) with job and request IDs. Nil discards.
	Logger *slog.Logger
	// ProgressInterval is the cadence of `progress` SSE events while a
	// job runs and its runner reports. Defaults to 1s.
	ProgressInterval time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ on the handler.
	// Off by default: the profiles expose internals, so enabling is an
	// explicit operator decision (gpuwalkd's -pprof flag).
	Pprof bool

	// Journal, when set, makes accepted jobs durable: every lifecycle
	// transition is fsynced to the journal, submissions are rejected if
	// the journal write fails, and NewServer re-enqueues the journal's
	// non-terminal jobs — in their original priority and admission
	// order — before accepting new work. See docs/RELIABILITY.md.
	Journal *Journal

	// Retryable classifies a failed item's error as transient. When it
	// is set and every failed item of a run classifies as transient,
	// the job is requeued with capped exponential backoff instead of
	// failing, until MaxAttempts runs are used up. Nil disables
	// retries. Panics surface as *PanicError, so a classifier can (and
	// usually should) decline them.
	Retryable func(error) bool
	// MaxAttempts bounds the total runs of one job (the initial run
	// plus retries). Defaults to 3 when Retryable is set.
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry; it doubles
	// on each subsequent one. Defaults to 250ms.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff. Defaults to 15s.
	RetryMaxDelay time.Duration

	// NodeName labels this server's jobs (JobView.Node) in a cluster so
	// gateway clients and tests can see where routing placed a job.
	// Empty (the standalone default) omits the field.
	NodeName string

	// CacheGet, when set, mounts GET /v1/cache/{key} serving raw result
	// payloads to cluster peers. Wire it to simcache's GetLocal — never
	// Get — so one node's miss can't recurse through another's
	// read-through. ok=false answers 404.
	CacheGet func(key string) (payload []byte, ok bool)

	// SpanLimit bounds each job's request-trace span buffer. Zero uses
	// obs.DefaultSpanLimit; negative disables tracing entirely (no
	// buffer is allocated and every span call site short-circuits on a
	// nil check). See docs/OBSERVABILITY.md §8.
	SpanLimit int
}

// Errors surfaced by Submit, mapped to HTTP statuses by the handler.
var (
	ErrDraining  = errors.New("jobd: server is draining, not accepting jobs")
	ErrQueueFull = errors.New("jobd: job queue is full")
	// ErrJournal marks a submission rejected because the durability
	// journal could not record it: a job the server cannot make
	// crash-safe is not acknowledged at all (HTTP 500).
	ErrJournal = errors.New("jobd: journal write failed")
	// ErrNotFound is returned by the client for HTTP 404: the job was
	// never accepted, or finished and was dropped from the retained
	// table (eviction, or a restart — terminal jobs are not recovered;
	// their results live in the result cache).
	ErrNotFound = errors.New("jobd: no such job")
)

// Server owns the queue, the worker pool and the job table.
type Server struct {
	opts Options
	log  *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job IDs in admission order, for listing
	queue    *jobQueue
	cond     *sync.Cond
	nextSeq  uint64
	draining bool

	// baseCtx parents every job context; cancelBase aborts in-flight
	// work when a drain deadline expires or the server is closed.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	workers    sync.WaitGroup

	// running tracks the cancel funcs of in-flight jobs so an expired
	// drain can abort them.
	running map[string]context.CancelFunc

	// backoff tracks the requeue timers of jobs waiting out a retry
	// delay. Presence in the map is the claim protocol between the
	// timer callback and Drain: whoever deletes the entry owns the
	// job's next transition.
	backoff map[string]*time.Timer

	metrics *serverMetrics
}

// NewServer builds a server and starts its worker pool.
func NewServer(opts Options) (*Server, error) {
	if opts.Runner == nil {
		return nil, errors.New("jobd: Options.Runner is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueSize == 0 {
		opts.QueueSize = 64
	}
	if opts.QueueSize < 0 {
		opts.QueueSize = 0 // jobQueue treats 0 as unbounded
	}
	if opts.RetainJobs == 0 {
		opts.RetainJobs = 4096
	}
	if opts.RetainJobs < 0 {
		opts.RetainJobs = 0 // unbounded
	}
	if opts.ProgressInterval <= 0 {
		opts.ProgressInterval = time.Second
	}
	if opts.Retryable != nil {
		if opts.MaxAttempts <= 0 {
			opts.MaxAttempts = 3
		}
		if opts.RetryBaseDelay <= 0 {
			opts.RetryBaseDelay = 250 * time.Millisecond
		}
		if opts.RetryMaxDelay <= 0 {
			opts.RetryMaxDelay = 15 * time.Second
		}
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		log:        log,
		jobs:       make(map[string]*job),
		queue:      newJobQueue(opts.QueueSize),
		baseCtx:    ctx,
		cancelBase: cancel,
		running:    make(map[string]context.CancelFunc),
		backoff:    make(map[string]*time.Timer),
		metrics:    newServerMetrics(time.Now()),
	}
	s.cond = sync.NewCond(&s.mu)
	s.recoverJobs()
	for i := 0; i < opts.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// jobID renders a job's wire ID. A named node (Options.NodeName, the
// host:port of a cluster backend's own URL) prefixes its name so IDs
// are unique across the cluster and name their owner: the gateway
// resolves every job read from that prefix. Recovered jobs keep the
// IDs their journal recorded.
func (s *Server) jobID(seq uint64) string {
	if s.opts.NodeName != "" {
		return fmt.Sprintf("%s-j%06d", s.opts.NodeName, seq)
	}
	return fmt.Sprintf("j%06d", seq)
}

// recoverJobs re-enqueues the journal's non-terminal jobs before the
// worker pool starts, preserving their IDs, priorities and admission
// order, so work accepted before a crash is work the restarted daemon
// finishes. Items whose results already landed in the result cache
// resolve instantly on re-run via the cache read-through.
func (s *Server) recoverJobs() {
	jl := s.opts.Journal
	if jl == nil {
		return
	}
	for _, r := range jl.Recovered() {
		j := &job{
			id:        r.ID,
			priority:  r.Priority,
			timeout:   r.Timeout,
			seq:       r.Seq,
			state:     StateQueued,
			items:     make([]Item, len(r.Specs)),
			created:   r.Created,
			attempts:  r.Attempts,
			recovered: true,
		}
		for i, sp := range r.Specs {
			j.items[i].Spec = sp
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.queue.push(j)
		j.appendEvent(EventQueued, map[string]any{"items": len(j.items), "recovered": true})
		s.metrics.recovered.Inc()
		s.log.Info("job recovered", "job_id", j.id, "items", len(j.items),
			"priority", j.priority, "attempts", j.attempts)
	}
	if ms := jl.MaxSeq(); ms > s.nextSeq {
		s.nextSeq = ms
	}
	s.metrics.noteQueueDepth(s.queue.Len())
	s.metrics.fams.GaugeFunc("jobd_journal_live_jobs",
		"Jobs with journal records but no terminal record yet.",
		func() float64 { return float64(jl.Stats().Live) })
	s.metrics.fams.GaugeFunc("jobd_journal_records",
		"Records in the current journal file (resets at compaction).",
		func() float64 { return float64(jl.Stats().Records) })
	s.metrics.fams.CounterFunc("jobd_journal_compactions_total",
		"Journal file rewrites dropping records of finished jobs.",
		func() float64 { return float64(jl.Stats().Compactions) })
}

// SubmitRequest is the POST /v1/jobs body. Exactly one of Spec and
// Specs must be set: Spec submits a single-item job, Specs a sweep.
type SubmitRequest struct {
	Spec     json.RawMessage   `json:"spec,omitempty"`
	Specs    []json.RawMessage `json:"specs,omitempty"`
	Priority int               `json:"priority,omitempty"`
	// Timeout is a Go duration string ("30s", "5m"); empty uses the
	// server default.
	Timeout string `json:"timeout,omitempty"`
}

// Submit validates and admits a job, returning its queued view.
func (s *Server) Submit(req SubmitRequest) (JobView, error) {
	return s.submit(req, "", obs.SpanContext{})
}

// submit is Submit with the originating HTTP request ID (empty for
// programmatic submissions) attached to the lifecycle logs and the
// caller's traceparent context (zero to start a fresh trace) parenting
// the job's span timeline.
func (s *Server) submit(req SubmitRequest, reqID string, remote obs.SpanContext) (JobView, error) {
	var specs []json.RawMessage
	switch {
	case req.Spec != nil && len(req.Specs) > 0:
		return JobView{}, errors.New("jobd: set spec or specs, not both")
	case req.Spec != nil:
		specs = []json.RawMessage{req.Spec}
	case len(req.Specs) > 0:
		specs = req.Specs
	default:
		return JobView{}, errors.New("jobd: empty submission: set spec or specs")
	}
	timeout := s.opts.DefaultTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			return JobView{}, fmt.Errorf("jobd: bad timeout %q", req.Timeout)
		}
		timeout = d
	}
	if max := s.opts.MaxTimeout; max > 0 && (timeout == 0 || timeout > max) {
		timeout = max
	}

	// The submit span covers admission end to end — validation done,
	// through queue-full checks and the journal fsync, to the accepted
	// event. Its buffer becomes the job's; on rejection it is dropped.
	buf := s.newTraceBuf(remote)
	submitSpan := buf.StartSpan(spanSubmit, remote.Span,
		obs.Str("request_id", reqID), obs.U64("items", uint64(len(specs))))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.metrics.rejected.With("draining").Inc()
		s.log.Warn("job rejected", "request_id", reqID, "reason", "draining")
		submitSpan.End(obs.Str("error", "draining"))
		return JobView{}, ErrDraining
	}
	if s.queue.Full() {
		s.metrics.rejected.With("queue_full").Inc()
		s.log.Warn("job rejected", "request_id", reqID, "reason", "queue_full")
		submitSpan.End(obs.Str("error", "queue_full"))
		return JobView{}, ErrQueueFull
	}
	s.nextSeq++
	j := &job{
		id:       s.jobID(s.nextSeq),
		priority: req.Priority,
		timeout:  timeout,
		seq:      s.nextSeq,
		state:    StateQueued,
		items:    make([]Item, len(specs)),
		created:  time.Now(),
		trace:    buf,
		root:     submitSpan.ID(),
	}
	for i, sp := range specs {
		j.items[i].Spec = sp
	}
	if jl := s.opts.Journal; jl != nil {
		// Durability before acknowledgement: the fsynced accepted record
		// is what makes the 202 a promise. If the journal cannot take
		// it, the job is not admitted (the burned seq leaves a harmless
		// gap in the ID space).
		err := journalSpan(buf, submitSpan.ID(), "accepted", func() error {
			return jl.Accepted(j.id, j.seq, j.priority, j.timeout, specs, j.created, 0)
		})
		if err != nil {
			s.metrics.rejected.With("journal").Inc()
			s.log.Error("job rejected", "request_id", reqID, "reason", "journal", "error", err.Error())
			submitSpan.End(obs.Str("error", "journal"))
			return JobView{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.queue.push(j)
	j.queueSpan = buf.StartSpan(spanQueueWait, j.root,
		obs.Str("priority", strconv.Itoa(j.priority)),
		obs.U64("queue_depth", uint64(s.queue.Len())))
	j.appendEvent(EventQueued, map[string]any{"items": len(specs)})
	s.metrics.submitted.Inc()
	s.metrics.noteQueueDepth(s.queue.Len())
	s.log.Info("job accepted", "request_id", reqID, "job_id", j.id, "trace_id", j.traceID(),
		"items", len(specs), "priority", j.priority, "timeout", timeout.String())
	s.cond.Signal()
	submitSpan.End(obs.Str("job_id", j.id))
	return j.view(s.opts.NodeName), nil
}

// Job returns a snapshot of one job.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(s.opts.NodeName), true
}

// Jobs returns snapshots of every job in admission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view(s.opts.NodeName))
	}
	return out
}

// worker pops jobs until the queue is empty and the server is
// draining or closed.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.draining {
			s.cond.Wait()
		}
		j := s.queue.pop()
		if j == nil { // draining with an empty queue: exit
			s.mu.Unlock()
			return
		}
		if j.state != StateQueued { // cancelled while queued
			s.metrics.queued.Set(float64(s.queue.Len()))
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		j.attempts++
		var ctx context.Context
		var cancel context.CancelFunc
		if j.timeout > 0 {
			ctx, cancel = context.WithTimeout(s.baseCtx, j.timeout)
		} else {
			ctx, cancel = context.WithCancel(s.baseCtx)
		}
		s.running[j.id] = cancel
		j.queueSpan.End()
		j.queueSpan = nil
		j.runSpan = j.trace.StartSpan(spanJobRun, j.root, obs.U64("attempt", uint64(j.attempts)))
		j.appendEvent(EventStarted, map[string]any{"attempt": j.attempts})
		if jl := s.opts.Journal; jl != nil {
			// A lost started record only costs a retry-budget reset on
			// recovery; it never loses the job, so log and carry on.
			err := journalSpan(j.trace, j.runSpan.ID(), "started", func() error {
				return jl.Started(j.id, j.attempts)
			})
			if err != nil {
				s.log.Error("journal append failed", "job_id", j.id, "record", "started", "error", err.Error())
			}
		}
		s.metrics.queued.Set(float64(s.queue.Len()))
		s.metrics.running.Set(float64(len(s.running)))
		s.mu.Unlock()
		s.log.Info("job started", "job_id", j.id, "trace_id", j.traceID(),
			"items", len(j.items), "attempt", j.attempts,
			"queue_wait_ms", j.started.Sub(j.created).Milliseconds())

		s.runJob(ctx, j)
		cancel()

		s.mu.Lock()
		delete(s.running, j.id)
		s.metrics.running.Set(float64(len(s.running)))
		s.mu.Unlock()
	}
}

// runItem executes one item's Runner call with the job's progress sink
// attached, converting a panic into a *PanicError instead of letting
// it unwind the worker goroutine: one poisonous spec must fail its own
// job, never take down the daemon and every other job with it.
func (s *Server) runItem(ctx context.Context, j *job, spec json.RawMessage) (result json.RawMessage, hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
			s.log.Error("runner panic recovered", "job_id", j.id, "panic", fmt.Sprint(r))
		}
	}()
	return s.opts.Runner(withProgress(ctx, j.prog.sink), spec)
}

// runJob executes every unfinished item of j under ctx and moves j to
// a terminal state — or back to the queue with backoff, when every
// failure this run was transient and attempts remain. Items after a
// context cancellation are left unrun; items finished by a previous
// attempt keep their results and are skipped.
func (s *Server) runJob(ctx context.Context, j *job) {
	// allRetryable narrows as failures arrive: the job requeues only if
	// every failed item this run had a transient error.
	allRetryable := s.opts.Retryable != nil
	for i := range j.items {
		if ctx.Err() != nil {
			break
		}
		s.mu.Lock()
		if j.items[i].Done {
			s.mu.Unlock()
			continue
		}
		spec := j.items[i].Spec
		runParent := j.runSpan.ID()
		s.mu.Unlock()

		j.prog.beginItem(i, time.Now())
		// The item span is the runner's parent: cache.lookup /
		// cache.peer_fetch / sim.run spans hang off it through the
		// context ref (a zero ref when tracing is off, so the wrap is
		// the identity on ctx).
		itemSpan := j.trace.StartSpan(spanItem, runParent, obs.U64("index", uint64(i)))
		itemCtx := obs.ContextWithSpanRef(ctx, obs.SpanRef{Buf: j.trace, Span: itemSpan.ID()})
		result, hit, err := s.runItem(itemCtx, j, spec)
		itemArgs := []obs.Arg{obs.U64("cache_hit", b2u(hit))}
		if err != nil {
			itemArgs = append(itemArgs, obs.Str("error", truncateErr(err.Error())))
		}
		itemSpan.End(itemArgs...)

		s.mu.Lock()
		if ctx.Err() != nil {
			// The runner was interrupted; whatever it returned is a
			// partial result. Leave the item unrun and cancel the job.
			s.mu.Unlock()
			break
		}
		it := &j.items[i]
		it.Done = true
		if err != nil {
			if allRetryable && !s.opts.Retryable(err) {
				allRetryable = false
			}
			it.Error = err.Error()
			s.metrics.items.With("error").Inc()
		} else {
			it.Result = result
			it.CacheHit = hit
			s.metrics.items.With("ok").Inc()
			if hit {
				s.metrics.itemCache.With("hit").Inc()
			} else {
				s.metrics.itemCache.With("miss").Inc()
			}
		}
		j.appendEvent(EventItemDone, map[string]any{
			"index":     i,
			"cache_hit": hit,
			"error":     it.Error,
		})
		s.mu.Unlock()
		s.log.Info("item done", "job_id", j.id, "item", i, "cache_hit", hit, "error", errText(err))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// LIFO defers: eviction runs before the unlock, after the terminal
	// state below is set, so every terminal transition enforces the
	// RetainJobs bound.
	defer s.evictLocked()
	j.finished = time.Now()
	dur := j.finished.Sub(j.started)
	if err := ctx.Err(); err != nil {
		j.state = StateCancelled
		j.err = fmt.Sprintf("job cancelled: %v", err)
		j.endRunSpanLocked("cancelled")
		j.appendEvent(EventCancelled, map[string]any{"reason": err.Error()})
		s.journalTerminalLocked(j)
		s.metrics.finishJob(StateCancelled, dur)
		s.log.Warn("job cancelled", "job_id", j.id, "trace_id", j.traceID(),
			"reason", err.Error(), "duration_ms", dur.Milliseconds())
		return
	}
	failed := 0
	for i := range j.items {
		if j.items[i].Error != "" {
			failed++
		}
	}
	if failed > 0 {
		if allRetryable && j.attempts < s.opts.MaxAttempts && !s.draining {
			j.endRunSpanLocked("retrying")
			s.retryLocked(j, failed)
			return
		}
		j.state = StateFailed
		j.err = fmt.Sprintf("%d of %d items failed", failed, len(j.items))
		if j.attempts > 1 {
			j.err = fmt.Sprintf("%s (attempt %d of %d)", j.err, j.attempts, s.opts.MaxAttempts)
		}
		j.endRunSpanLocked("failed")
		j.appendEvent(EventFailed, map[string]any{"failed": failed, "attempt": j.attempts})
		s.journalTerminalLocked(j)
		s.metrics.finishJob(StateFailed, dur)
		s.log.Warn("job failed", "job_id", j.id, "trace_id", j.traceID(),
			"failed_items", failed, "attempt", j.attempts,
			"duration_ms", dur.Milliseconds())
		return
	}
	j.state = StateDone
	j.endRunSpanLocked("done")
	j.appendEvent(EventDone, nil)
	s.journalTerminalLocked(j)
	s.metrics.finishJob(StateDone, dur)
	s.log.Info("job done", "job_id", j.id, "trace_id", j.traceID(),
		"items", len(j.items), "duration_ms", dur.Milliseconds())
}

// endRunSpanLocked closes the current attempt's job.run span with its
// outcome. Caller holds the server lock.
func (j *job) endRunSpanLocked(state string) {
	if j.runSpan == nil {
		return
	}
	j.runSpan.End(obs.Str("state", state))
	j.runSpan = nil
}

// b2u renders a bool as a 0/1 span attribute value.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// retryLocked sends a transiently-failed job back toward the queue
// after a capped exponential backoff. Failed items are reset (finished
// ones keep their results); the attempt counter survives in the job,
// the journal, the API and the SSE stream. Caller holds the lock and
// has verified attempts remain.
func (s *Server) retryLocked(j *job, failed int) {
	delay := retryDelay(s.opts.RetryBaseDelay, s.opts.RetryMaxDelay, j.attempts)
	firstErr := ""
	for i := range j.items {
		if j.items[i].Error != "" {
			if firstErr == "" {
				firstErr = j.items[i].Error
			}
			j.items[i] = Item{Spec: j.items[i].Spec}
		}
	}
	j.state = StateQueued
	j.err = ""
	j.finished = time.Time{}
	j.appendEvent(EventRetrying, map[string]any{
		"attempt":  j.attempts,
		"delay_ms": delay.Milliseconds(),
		"failed":   failed,
		"error":    truncateErr(firstErr),
	})
	if jl := s.opts.Journal; jl != nil {
		err := journalSpan(j.trace, j.root, "retrying", func() error {
			return jl.Retrying(j.id, j.attempts, truncateErr(firstErr))
		})
		if err != nil {
			s.log.Error("journal append failed", "job_id", j.id, "record", "retrying", "error", err.Error())
		}
	}
	j.backoffSpan = j.trace.StartSpan(spanBackoff, j.root,
		obs.U64("attempt", uint64(j.attempts)),
		obs.U64("delay_ms", uint64(delay.Milliseconds())))
	s.metrics.retries.Inc()
	s.metrics.backoff.AddGauge(1)
	s.log.Warn("job retrying", "job_id", j.id, "trace_id", j.traceID(), "attempt", j.attempts,
		"max_attempts", s.opts.MaxAttempts, "delay_ms", delay.Milliseconds(), "failed_items", failed)
	s.backoff[j.id] = time.AfterFunc(delay, func() { s.requeueAfterBackoff(j) })
}

// requeueAfterBackoff is the backoff timer's callback: put the job
// back in the queue, unless a drain claimed it first (entry gone) or
// began while the timer was in flight (cancel it here).
func (s *Server) requeueAfterBackoff(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.backoff[j.id]; !ok {
		return // drain already settled this job
	}
	delete(s.backoff, j.id)
	s.metrics.backoff.AddGauge(-1)
	if j.backoffSpan != nil {
		j.backoffSpan.End()
		j.backoffSpan = nil
	}
	if s.draining {
		s.cancelPendingLocked(j, "server draining")
		return
	}
	s.queue.push(j)
	j.queueSpan = j.trace.StartSpan(spanQueueWait, j.root,
		obs.Str("priority", strconv.Itoa(j.priority)),
		obs.U64("queue_depth", uint64(s.queue.Len())))
	s.metrics.noteQueueDepth(s.queue.Len())
	s.log.Info("job requeued", "job_id", j.id, "attempt", j.attempts)
	s.cond.Signal()
}

// cancelPendingLocked moves a queued (or backoff-pending) job to
// cancelled, with the event, journal record and metrics every terminal
// transition gets. Caller holds the lock.
func (s *Server) cancelPendingLocked(j *job, reason string) {
	j.state = StateCancelled
	j.err = "job cancelled: " + reason
	j.finished = time.Now()
	if j.queueSpan != nil {
		j.queueSpan.End(obs.Str("error", reason))
		j.queueSpan = nil
	}
	if j.backoffSpan != nil {
		j.backoffSpan.End(obs.Str("error", reason))
		j.backoffSpan = nil
	}
	j.appendEvent(EventCancelled, map[string]any{"reason": reason})
	s.journalTerminalLocked(j)
	s.metrics.finishJob(StateCancelled, 0)
	s.log.Warn("job cancelled", "job_id", j.id, "reason", reason)
}

// journalTerminalLocked records a terminal transition in the journal,
// if one is configured. Losing a terminal record is safe — the job
// would be re-run on recovery and resolve from the result cache — so
// failures are logged, not propagated. Caller holds the lock.
func (s *Server) journalTerminalLocked(j *job) {
	jl := s.opts.Journal
	if jl == nil {
		return
	}
	err := journalSpan(j.trace, j.root, "terminal", func() error {
		return jl.Terminal(j.id, j.state, j.err)
	})
	if err != nil {
		s.log.Error("journal append failed", "job_id", j.id, "record", "terminal", "error", err.Error())
	}
}

// retryDelay is the capped exponential backoff schedule: base doubles
// per attempt already used, clamped to max.
func retryDelay(base, max time.Duration, attempts int) time.Duration {
	d := base
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// truncateErr bounds error text carried in events and journal records:
// a watchdog stall dump can run to kilobytes, and the first lines are
// the informative ones.
func truncateErr(s string) string {
	const max = 500
	if len(s) <= max {
		return s
	}
	return s[:max] + " …(truncated)"
}

// evictLocked drops the oldest terminal jobs once the table exceeds
// Options.RetainJobs, so the job map stays bounded under sustained
// traffic. Queued and running jobs are never evicted; the queue bound
// plus the worker count bounds the non-terminal prefix, so one linear
// pass suffices. Caller holds the server lock.
func (s *Server) evictLocked() {
	max := s.opts.RetainJobs
	over := len(s.order) - max
	if max <= 0 || over <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if over > 0 && s.jobs[id].state.Terminal() {
			delete(s.jobs, id)
			s.metrics.evicted.Inc()
			over--
			continue
		}
		kept = append(kept, id)
	}
	// Zero the tail so evicted IDs don't pin strings via the shared array.
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = ""
	}
	s.order = kept
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Drain gracefully shuts the server down: new submissions are
// rejected, queued jobs are cancelled, in-flight jobs run to
// completion. If ctx expires first, in-flight jobs are aborted via
// their contexts and Drain returns ctx's error once the pool exits.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.log.Info("drain started", "queued", s.queue.Len(),
			"running", len(s.running), "backoff", len(s.backoff))
		for {
			j := s.queue.pop()
			if j == nil {
				break
			}
			s.cancelPendingLocked(j, "server draining")
		}
		// Jobs waiting out a retry backoff are queued in spirit: settle
		// them too. Stopping the timer claims the job; a timer that
		// already fired is blocked on our lock and will see draining.
		for id, timer := range s.backoff {
			if timer.Stop() {
				delete(s.backoff, id)
				s.metrics.backoff.AddGauge(-1)
				s.cancelPendingLocked(s.jobs[id], "server draining")
			}
		}
		s.metrics.queued.Set(0)
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain finished")
		return nil
	case <-ctx.Done():
		s.cancelBase() // abort in-flight jobs
		<-done
		s.log.Warn("drain deadline expired; in-flight jobs aborted")
		return ctx.Err()
	}
}

// Close force-stops the server: drain with an already-expired
// deadline, so in-flight jobs are aborted immediately.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Handler returns the HTTP API:
//
//	POST /v1/jobs             submit a job (SubmitRequest body)
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        one job (includes live progress)
//	GET  /v1/jobs/{id}/events server-sent event stream
//	GET  /v1/jobs/{id}/trace  span timeline as Chrome trace_event JSON
//	GET  /healthz             "ok" (200) or "draining" (503)
//	GET  /metrics             Prometheus text exposition
//	GET  /v1/cache/{key}      raw cached payload for peers (Options.CacheGet only)
//	GET  /debug/pprof/...     net/http/pprof (Options.Pprof only)
//
// Every response carries an X-Request-Id header; the same ID labels
// the request's structured logs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.CacheGet != nil {
		mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	}
	if s.opts.Pprof {
		// No method in the patterns: pprof handlers accept GET and POST.
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return httpobs.Wrap(mux, s.metrics.httpReqs, s.log, "r")
}

// handleCacheGet serves one raw result payload to a cluster peer
// (mounted only when Options.CacheGet is set). The payload is the
// cached JSON exactly as stored, so the fetching node's digest-checked
// Put re-verifies it end to end.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok := s.opts.CacheGet(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no such cache entry")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	v, err := s.submit(req, httpobs.RequestID(r.Context()), httpobs.RemoteSpan(r.Context()))
	switch {
	case errors.Is(err, ErrDraining):
		// Retry-After tells well-behaved open-loop clients to back off
		// instead of hammering a server that is already shedding load.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrJournal):
		// Durability failed, the job was not admitted; the condition is
		// usually transient (disk pressure), so invite a retry.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusInternalServerError, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, v)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// progressEvent is the payload of a `progress` SSE event: the job's
// live per-item telemetry plus the job-level finished-item count.
type progressEvent struct {
	ProgressView
	ItemsDone int `json:"items_done"`
}

// handleEvents streams a job's event log as server-sent events: the
// log so far is replayed immediately, then new events are pushed as
// they are appended, until the job reaches a terminal state or the
// client goes away. While the job runs and its runner reports
// progress, synthetic `progress` events (never stored in the log, no
// id line) interleave at Options.ProgressInterval, with one final
// progress event guaranteed immediately before the terminal event.
//
// Every log event carries an id line (its Seq), so a dropped client
// can reconnect with a Last-Event-ID header and resume exactly after
// the last event it saw: the replay starts at Seq+1, preceded by one
// fresh progress snapshot (if the job has ever reported) so the
// client's live telemetry is current immediately, not at the next
// progress tick. Event IDs are per-daemon-lifetime: after a restart,
// recovered jobs rebuild their logs and an out-of-range Last-Event-ID
// simply clamps to a full replay from wherever the new log stands.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.metrics.sseClients.AddGauge(1)
	defer s.metrics.sseClients.AddGauge(-1)
	next := 0
	resumed := false
	if lei := strings.TrimSpace(r.Header.Get("Last-Event-ID")); lei != "" {
		if n, err := strconv.Atoi(lei); err == nil && n >= 0 {
			next = n + 1
			resumed = true
		}
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// writeProgress emits one `progress` event if the runner has ever
	// reported; it returns false when the client is gone.
	writeProgress := func() bool {
		pv := j.prog.snapshot(time.Now())
		if pv == nil {
			return true
		}
		s.mu.Lock()
		itemsDone := 0
		for i := range j.items {
			if j.items[i].Done {
				itemsDone++
			}
		}
		s.mu.Unlock()
		b, err := json.Marshal(progressEvent{ProgressView: *pv, ItemsDone: itemsDone})
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", EventProgress, b)
		return err == nil
	}

	if resumed {
		// A reconnecting client replays from where it left off; give it
		// the latest progress snapshot up front so its telemetry is
		// fresh before the log resumes.
		if !writeProgress() {
			return
		}
		if canFlush {
			fl.Flush()
		}
	}

	for {
		s.mu.Lock()
		if next > len(j.events) {
			// Last-Event-ID beyond this log (e.g. from before a daemon
			// restart rebuilt it): clamp rather than slice out of range.
			next = len(j.events)
		}
		events := j.events[next:]
		next = len(j.events)
		terminal := j.state.Terminal()
		var wake chan struct{}
		if len(events) == 0 && !terminal {
			wake = j.subscribe()
		}
		s.mu.Unlock()

		for _, ev := range events {
			if terminalEvent(ev.Type) && !writeProgress() {
				return
			}
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b); err != nil {
				return
			}
		}
		if canFlush {
			fl.Flush()
		}
		if terminal && len(events) == 0 {
			return
		}
		if wake == nil {
			continue
		}
		timer := time.NewTimer(s.opts.ProgressInterval)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			s.mu.Lock()
			j.unsubscribe(wake)
			s.mu.Unlock()
			if !writeProgress() {
				return
			}
			if canFlush {
				fl.Flush()
			}
		case <-r.Context().Done():
			timer.Stop()
			s.mu.Lock()
			j.unsubscribe(wake)
			s.mu.Unlock()
			return
		}
	}
}

// terminalEvent reports whether an event type ends the job's log.
func terminalEvent(typ string) bool {
	return typ == EventDone || typ == EventFailed || typ == EventCancelled
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the Prometheus text exposition. Counters and
// gauges are atomics, so the snapshot never blocks the worker pool.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypeProm)
	_ = s.metrics.fams.WriteText(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
