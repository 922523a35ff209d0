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
// returns the result payload, a JSON value, plus whether it came from a
// result cache. The context carries the job's deadline and the server's
// lifetime; runners must return promptly once it is cancelled. Runners
// that can report live progress should fetch the sink with
// ProgressSink(ctx) and call it as they go. The server never modifies
// a returned result, so runners may return bytes shared with other
// jobs. The server checks each result once: one that is not JSON fails
// its item, and one that is not compact is kept compacted, as job
// views carry it.
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

	// Journal, when set, makes accepted jobs durable: each job's
	// admission and terminal state are fsynced to the journal,
	// submissions are rejected if the journal write fails, and NewServer
	// re-enqueues the journal's non-terminal jobs — in their original
	// priority and admission order — before accepting new work. See
	// docs/RELIABILITY.md.
	Journal *Journal

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

	// Lookup, when set, answers cache hits at admission. Submit probes
	// each spec through it before taking the server lock and stops at
	// the first miss (ok=false). A job whose every item hits is born
	// done, each item carrying its looked-up result as a cache hit: it
	// writes no journal record, takes no queue slot and wakes no
	// worker. Any miss admits the job as usual, and the Runner sees
	// every item. The context carries the submit span. Wire it to
	// simcache's local store only, never a peer fetch: a probe must
	// stay cheap enough for every submission to pay it.
	Lookup func(ctx context.Context, spec json.RawMessage) (result json.RawMessage, ok bool)
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
			recovered: true,
		}
		// The journal wrote each spec with json.Marshal, so each is in
		// the wire form views copy (wireJSON).
		for i, sp := range r.Specs {
			j.items[i].Spec = sp
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.queue.push(j)
		s.metrics.recovered.Inc()
		s.log.Info("job recovered", "job_id", j.id, "items", len(j.items),
			"priority", j.priority)
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

// invalidSubmit ends the submit span of a submission that fails
// validation.
var invalidSubmit = []obs.Arg{obs.Str("error", "invalid")}

// Submit validates and admits a job, returning its view: queued, or
// done when Options.Lookup answered every item at admission.
func (s *Server) Submit(req SubmitRequest) (JobView, error) {
	buf, span := s.startSubmit(obs.SpanContext{}, "")
	v, end, err := s.submit(req, "", buf, span)
	span.End(end...)
	return v, err
}

// submit is Submit under the submission's trace (startSubmit), with the
// originating HTTP request ID (empty for programmatic submissions) on
// the lifecycle logs. It returns the attributes the submit span ends
// with once its caller has answered the submission.
func (s *Server) submit(req SubmitRequest, reqID string, buf *obs.SpanBuf, submitSpan *obs.ActiveSpan) (JobView, []obs.Arg, error) {
	var specs []json.RawMessage
	switch {
	case req.Spec != nil && len(req.Specs) > 0:
		return JobView{}, invalidSubmit, errors.New("jobd: set spec or specs, not both")
	case req.Spec != nil:
		specs = []json.RawMessage{req.Spec}
	case len(req.Specs) > 0:
		specs = req.Specs
	default:
		return JobView{}, invalidSubmit, errors.New("jobd: empty submission: set spec or specs")
	}
	timeout := s.opts.DefaultTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			return JobView{}, invalidSubmit, fmt.Errorf("jobd: bad timeout %q", req.Timeout)
		}
		timeout = d
	}
	// Specs are kept, probed, run and journaled in wire form, so views
	// copy them. A spec decoded from a request body is valid JSON, and
	// usually already in that form.
	wire := make([]json.RawMessage, len(specs))
	for i, sp := range specs {
		w, err := wireJSON(sp)
		if err != nil {
			return JobView{}, invalidSubmit, fmt.Errorf("jobd: spec %d is not JSON: %v", i, err)
		}
		wire[i] = w
	}
	specs = wire

	// Admission runs under the submit span: the cache probe, the
	// queue-full checks and the journal fsync. On rejection the buffer
	// is dropped.
	items := obs.U64("items", uint64(len(specs)))
	hits := s.lookupAll(buf, submitSpan.ID(), specs)
	bornDone := len(hits) == len(specs)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.metrics.rejected.With("draining").Inc()
		s.log.Warn("job rejected", "request_id", reqID, "reason", "draining")
		return JobView{}, []obs.Arg{items, obs.Str("error", "draining")}, ErrDraining
	}
	if !bornDone && s.queue.Full() {
		s.metrics.rejected.With("queue_full").Inc()
		s.log.Warn("job rejected", "request_id", reqID, "reason", "queue_full")
		return JobView{}, []obs.Arg{items, obs.Str("error", "queue_full")}, ErrQueueFull
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
	admitted := []obs.Arg{items, obs.Str("job_id", j.id)}
	if bornDone {
		s.admitDoneLocked(j, reqID, hits)
		return j.view(s.opts.NodeName), admitted, nil
	}
	if jl := s.opts.Journal; jl != nil {
		// Durability before acknowledgement: the fsynced accepted record
		// is what makes the 202 a promise. If the journal cannot take
		// it, the job is not admitted (the burned seq leaves a harmless
		// gap in the ID space).
		err := journalSpan(buf, submitSpan.ID(), "accepted", func() error {
			return jl.Accepted(j.id, j.seq, j.priority, j.timeout, specs, j.created)
		})
		if err != nil {
			s.metrics.rejected.With("journal").Inc()
			s.log.Error("job rejected", "request_id", reqID, "reason", "journal", "error", err.Error())
			return JobView{}, []obs.Arg{items, obs.Str("error", "journal")}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	j.probed = hits
	s.acceptLocked(j, reqID)
	s.evictLocked()
	s.queue.push(j)
	j.queueSpan = buf.StartSpan(spanQueueWait, j.root,
		obs.Str("priority", strconv.Itoa(j.priority)),
		obs.U64("queue_depth", uint64(s.queue.Len())))
	s.metrics.noteQueueDepth(s.queue.Len())
	s.cond.Signal()
	return j.view(s.opts.NodeName), admitted, nil
}

// lookupAll probes specs in order through Options.Lookup, under the
// submit span root, and returns the results of the leading specs that
// hit, in wire form: all of them when every spec hits, none when no
// hook is set. It stops at the first miss; a result that is not JSON
// counts as one.
func (s *Server) lookupAll(buf *obs.SpanBuf, root obs.SpanID, specs []json.RawMessage) []json.RawMessage {
	if s.opts.Lookup == nil {
		return nil
	}
	ctx := obs.ContextWithSpanRef(s.baseCtx, obs.SpanRef{Buf: buf, Span: root})
	var results []json.RawMessage
	for _, spec := range specs {
		r, ok := s.opts.Lookup(ctx, spec)
		if !ok {
			break
		}
		r, err := wireJSON(r)
		if err != nil {
			break
		}
		results = append(results, r)
	}
	return results
}

// acceptLocked publishes an admitted job: it enters the job table,
// queued, counts as submitted and logs its acceptance.
// Caller holds the lock.
func (s *Server) acceptLocked(j *job, reqID string) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.metrics.submitted.Inc()
	s.log.Info("job accepted", "request_id", reqID, "job_id", j.id, "trace_id", j.traceID(),
		"items", len(j.items), "priority", j.priority, "timeout", j.timeout.String())
}

// admitDoneLocked admits j, whose every item hit at the probe, as a job
// born done: its start, each item's finish and the done transition
// follow its acceptance at once, through the helpers the worker uses,
// so the job reads exactly as a worker-run hit does.
// created, started and finished are all its admission time. Such a job
// needs no journal record: like any finished job it is not recovered
// after a restart, and its results are in the cache. Caller holds the
// lock.
func (s *Server) admitDoneLocked(j *job, reqID string, results []json.RawMessage) {
	s.acceptLocked(j, reqID)
	j.started = j.created
	for i, r := range results {
		s.finishItemLocked(j, i, r, true, nil)
	}
	s.finishLocked(j, j.created, nil)
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
		j.runSpan = j.trace.StartSpan(spanJobRun, j.root)
		j.notify()
		s.metrics.queued.Set(float64(s.queue.Len()))
		s.metrics.running.Set(float64(len(s.running)))
		s.mu.Unlock()
		s.log.Info("job started", "job_id", j.id, "trace_id", j.traceID(),
			"items", len(j.items), "queue_wait_ms", j.started.Sub(j.created).Milliseconds())

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
// job, never take down the daemon and every other job with it. It
// returns the result in wire form, and fails the item when the result
// is not JSON.
func (s *Server) runItem(ctx context.Context, j *job, spec json.RawMessage) (result json.RawMessage, hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
			s.log.Error("runner panic recovered", "job_id", j.id, "panic", fmt.Sprint(r))
		}
	}()
	result, hit, err = s.opts.Runner(withProgress(ctx, j.prog.sink), spec)
	if err == nil && len(result) > 0 {
		if result, err = wireJSON(result); err != nil {
			err = fmt.Errorf("jobd: result is not JSON: %v", err)
		}
	}
	return result, hit, err
}

// runJob executes every item of j under ctx and moves j to a terminal
// state. A job runs once: the simulator is deterministic, so a failed
// item would fail the same way again. Items after a context
// cancellation are left unrun.
func (s *Server) runJob(ctx context.Context, j *job) {
	// Only this goroutine writes the job's items and run span while it
	// runs, so it reads them without the lock.
	runParent := j.runSpan.ID()
	for i := range j.items {
		if ctx.Err() != nil {
			break
		}
		spec := j.items[i].Spec

		j.prog.beginItem(i, time.Now())
		// The item span is the runner's parent: cache.lookup /
		// cache.peer_fetch / sim.run spans hang off it through the
		// context ref (a zero ref when tracing is off, so the wrap is
		// the identity on ctx).
		itemSpan := j.trace.StartSpan(spanItem, runParent, obs.U64("index", uint64(i)))
		itemCtx := obs.ContextWithSpanRef(ctx, obs.SpanRef{Buf: j.trace, Span: itemSpan.ID()})
		var result json.RawMessage
		var hit bool
		var err error
		if i < len(j.probed) {
			// The admission probe already read this item's result.
			result, hit = j.probed[i], true
		} else {
			result, hit, err = s.runItem(itemCtx, j, spec)
		}
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
		s.finishItemLocked(j, i, result, hit, err)
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.finishLocked(j, time.Now(), ctx.Err())
	s.mu.Unlock()
	// The terminal record is fsynced outside the lock, so job views,
	// submissions and SSE reads never wait behind it. Only the job's
	// worker writes it, and a record lost to a crash here is safe (see
	// journalTerminal).
	s.journalTerminal(j)
}

// finishItemLocked records the outcome of item i of j: the item's
// view, the item metrics and its log record, and wakes the job's event
// streams. Caller holds the lock.
func (s *Server) finishItemLocked(j *job, i int, result json.RawMessage, hit bool, err error) {
	it := &j.items[i]
	it.Done = true
	if err != nil {
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
	j.notify()
	s.log.Info("item done", "job_id", j.id, "item", i, "cache_hit", hit, "error", it.Error)
}

// finishLocked is the terminal transition of a started job: cancelled
// if cause (the job context's error) is set, else failed if any item
// failed, else done. It stamps finished, ends the run span, wakes the
// job's event streams, counts and logs the outcome, and enforces the
// RetainJobs bound. The worker and a job born done at admission both
// end here; the worker journals the terminal record after releasing
// the lock, and a job born done has none. Caller holds the lock.
func (s *Server) finishLocked(j *job, finished time.Time, cause error) {
	j.finished = finished
	dur := finished.Sub(j.started)
	failed := 0
	for i := range j.items {
		if j.items[i].Error != "" {
			failed++
		}
	}
	switch {
	case cause != nil:
		j.state = StateCancelled
		j.err = cancelledPrefix + cause.Error()
		j.endRunSpanLocked("cancelled")
		s.log.Warn("job cancelled", "job_id", j.id, "trace_id", j.traceID(),
			"reason", cause.Error(), "duration_ms", dur.Milliseconds())
	case failed > 0:
		j.state = StateFailed
		j.err = fmt.Sprintf("%d of %d items failed", failed, len(j.items))
		j.endRunSpanLocked("failed")
		s.log.Warn("job failed", "job_id", j.id, "trace_id", j.traceID(),
			"failed_items", failed, "duration_ms", dur.Milliseconds())
	default:
		j.state = StateDone
		j.endRunSpanLocked("done")
		s.log.Info("job done", "job_id", j.id, "trace_id", j.traceID(),
			"items", len(j.items), "duration_ms", dur.Milliseconds())
	}
	j.notify()
	s.metrics.finishJob(j.state, dur)
	s.evictLocked()
}

// endRunSpanLocked closes the job.run span with its outcome. Caller
// holds the server lock.
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

// cancelPendingLocked moves a queued job to cancelled, with the wake-up
// and metrics every terminal transition gets; the caller journals its
// terminal record after releasing the lock. Caller holds the lock.
func (s *Server) cancelPendingLocked(j *job, reason string) {
	j.state = StateCancelled
	j.err = cancelledPrefix + reason
	j.finished = time.Now()
	if j.queueSpan != nil {
		j.queueSpan.End(obs.Str("error", reason))
		j.queueSpan = nil
	}
	j.notify()
	s.metrics.finishJob(StateCancelled, 0)
	s.log.Warn("job cancelled", "job_id", j.id, "reason", reason)
}

// journalTerminal records a terminal job in the journal, if one is
// configured. Losing a terminal record is safe — the job would be
// re-run on recovery and resolve from the result cache — so failures
// are logged, not propagated. A terminal job's fields never change
// again, so the caller need not hold the lock, and should not: the
// append is an fsync.
func (s *Server) journalTerminal(j *job) {
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

// truncateErr bounds error text carried in span attributes: a
// watchdog stall dump can run to kilobytes, and the first lines are
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

// Drain gracefully shuts the server down: new submissions are
// rejected, queued jobs are cancelled, in-flight jobs run to
// completion. If ctx expires first, in-flight jobs are aborted via
// their contexts and Drain returns ctx's error once the pool exits.
func (s *Server) Drain(ctx context.Context) error {
	var cancelled []*job
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.log.Info("drain started", "queued", s.queue.Len(), "running", len(s.running))
		for {
			j := s.queue.pop()
			if j == nil {
				break
			}
			s.cancelPendingLocked(j, "server draining")
			cancelled = append(cancelled, j)
		}
		s.metrics.queued.Set(0)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	for _, j := range cancelled {
		s.journalTerminal(j)
	}

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

// handleSubmit answers POST /v1/jobs under a submit span that covers it all.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := httpobs.RequestID(r.Context())
	buf, span := s.startSubmit(httpobs.RemoteSpan(r.Context()), reqID)
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		span.End(obs.Str("error", "bad request body"))
		return
	}
	v, end, err := s.submit(req, reqID, buf, span)
	defer span.End(end...)
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
		writeView(w, http.StatusAccepted, &v)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJobList(w, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeView(w, http.StatusOK, &v)
}

// progressEvent is the payload of a `progress` SSE event: the job's
// live per-item telemetry plus the job-level finished-item count.
type progressEvent struct {
	ProgressView
	ItemsDone int `json:"items_done"`
}

// handleEvents streams a job's event log as server-sent events: the
// log so far is replayed immediately, then new events are pushed as
// the job moves, until the job reaches a terminal state or the
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
	next := 0 // above 0 when the client resumes
	if lei := strings.TrimSpace(r.Header.Get("Last-Event-ID")); lei != "" {
		if n, err := strconv.Atoi(lei); err == nil && n >= 0 {
			next = n + 1
		}
	}
	rc := http.NewResponseController(w)
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

	if next > 0 {
		// A reconnecting client replays from where it left off; give it
		// the latest progress snapshot up front so its telemetry is
		// fresh before the log resumes.
		if !writeProgress() {
			return
		}
		_ = rc.Flush()
	}

	for {
		s.mu.Lock()
		// A Last-Event-ID beyond the log (one from before a restart)
		// yields no events and moves next back to the log's end.
		var events []Event
		events, next = j.events(next)
		terminal := j.state.Terminal()
		var wake <-chan struct{}
		if len(events) == 0 && !terminal {
			wake = j.subscribe()
		}
		s.mu.Unlock()

		for i, ev := range events {
			// A terminal job's log ends with its terminal event.
			if terminal && i == len(events)-1 && !writeProgress() {
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
		_ = rc.Flush()
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
			if !writeProgress() {
				return
			}
			_ = rc.Flush()
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
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

// writeJSON writes v as compact JSON. Job views go out through
// writeView, which writes the same bytes.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
