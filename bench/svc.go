package main

// The service workloads: open-loop submissions to real gpuwalkd
// processes through jobd.Client, drained job by job, checked against
// in-process simulations, and broken down by /proc, /metrics and the
// per-job span timelines the daemons record.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpuwalk"
	"gpuwalk/internal/jobd"
	"gpuwalk/internal/obs"
)

const (
	// inflight bounds both the requests in flight and the client's
	// keep-alive connections, so the client cannot queue work the
	// service has not accepted yet.
	inflight = 2
	// traceSample caps how many jobs' span timelines a traced run reads.
	traceSample = 300
	// checkSample is how many items per run are compared with an
	// in-process simulation of the same spec.
	checkSample = 5
	// replaySample is how many specs a traced run re-simulates in-process
	// under the CPU profiler, for the simulator's per-layer numbers on
	// the service's spec mix.
	replaySample = 50
)

// svcShape describes one service workload.
type svcShape struct {
	gateway bool    // route through a cluster gateway
	rate    float64 // submissions per second
	keys    int     // distinct specs, warm-filled first; 0 = every op is new
	hit     bool    // every measured item must be a cache hit (else a miss)
}

func shapeOf(workload string, quick bool) svcShape {
	if workload == "svc-hot" {
		s := svcShape{gateway: true, rate: 200, keys: 50, hit: true}
		if quick {
			s.keys = 10
		}
		return s
	}
	return svcShape{rate: 20}
}

// tinySpec is one small MVT job: it simulates in a few tens of
// milliseconds. Consecutive salts pair FCFS with SIMT-aware on the
// same inputs.
func tinySpec(salt uint64) json.RawMessage {
	sched := gpuwalk.FCFS
	if salt%2 == 1 {
		sched = gpuwalk.SIMTAware
	}
	seed := salt / 2
	return json.RawMessage(fmt.Sprintf(
		`{"Workload":"MVT","Scheduler":%q,"Seed":%d,"Gen":{"Scale":0.02,"WavefrontsPerCU":2,"InstrsPerWavefront":6,"Seed":%d}}`,
		sched, seed, seed))
}

// decodeSpec merges a spec over DefaultConfig exactly as gpuwalkd's
// runner does.
func decodeSpec(spec json.RawMessage) (gpuwalk.Config, error) {
	cfg := gpuwalk.DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.DisallowUnknownFields()
	err := dec.Decode(&cfg)
	return cfg, err
}

// countingClient is an HTTP client limited to inflight keep-alive
// connections that counts the connections it opens.
func countingClient(dials *atomic.Int64) *http.Client {
	d := &net.Dialer{Timeout: 10 * time.Second}
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     inflight,
		MaxIdleConnsPerHost: inflight,
		IdleConnTimeout:     time.Minute,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
}

// service is a running backend, optionally behind a gateway.
type service struct {
	dir     string
	backend *daemon
	gateway *daemon
	url     string // where clients send requests
}

func (s *service) daemons() []*daemon {
	if s.gateway != nil {
		return []*daemon{s.gateway, s.backend}
	}
	return []*daemon{s.backend}
}

// startService starts the daemons with fresh state and returns once
// the entry point reports healthy, with the time that took.
func startService(ctx context.Context, hc *http.Client, bin, stateRoot string, gateway bool) (*service, time.Duration, error) {
	dir, err := os.MkdirTemp(stateRoot, "state-")
	if err != nil {
		return nil, 0, err
	}
	s := &service{dir: dir}
	start := time.Now()
	s.backend, err = startDaemon(ctx, "backend", bin, filepath.Join(dir, "backend.log"),
		"-addr", "127.0.0.1:0", "-cache", filepath.Join(dir, "cache"),
		"-journal", filepath.Join(dir, "journal"),
		"-workers", "2", "-queue", "-1", "-retain", "-1")
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s.url = s.backend.url
	if gateway {
		// The gateway probes its peers once before listening, so the
		// backend must answer first.
		if err := waitHealthy(ctx, hc, s.backend.url); err != nil {
			s.kill()
			return nil, 0, err
		}
		s.gateway, err = startDaemon(ctx, "gateway", bin, filepath.Join(dir, "gateway.log"),
			"-gateway", "-addr", "127.0.0.1:0", "-peers", s.backend.url)
		if err != nil {
			s.kill()
			return nil, 0, err
		}
		s.url = s.gateway.url
	}
	if err := waitHealthy(ctx, hc, s.url); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop drains the daemons with SIGTERM, front first, checks that they
// exit cleanly and removes their state.
func (s *service) stop() error {
	var errs []error
	for _, d := range s.daemons() {
		if err := d.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	os.RemoveAll(s.dir)
	if len(errs) > 0 {
		return fmt.Errorf("%v", errs)
	}
	return nil
}

func (s *service) kill() {
	for _, d := range []*daemon{s.gateway, s.backend} {
		if d != nil {
			d.kill()
		}
	}
	os.RemoveAll(s.dir)
}

// cpu sums the daemons' CPU time.
func (s *service) cpu() (backend, gateway time.Duration, err error) {
	if backend, err = procCPU(s.backend.cmd.Process.Pid); err != nil || s.gateway == nil {
		return backend, 0, err
	}
	gateway, err = procCPU(s.gateway.cmd.Process.Pid)
	return backend, gateway, err
}

// svcOp is one submission and what became of it.
type svcOp struct {
	spec                  json.RawMessage
	intended, sent, acked time.Time
	id                    string
	err                   error
	view                  jobd.JobView
}

// openLoop submits ops at the given rate from the start time, whatever
// the service's pace. A submission waits for one of the inflight
// senders when both are busy; its latency still counts from when it
// was due. loadgen.Run schedules the same way; the ledger keeps its own
// loop so that changes to the load harness cannot move its numbers.
func openLoop(ctx context.Context, c *jobd.Client, ops []*svcOp, rate float64) {
	// Sized to every op so the schedule never waits on a sender.
	due := make(chan *svcOp, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range due {
				op.sent = time.Now()
				v, err := c.Submit(ctx, jobd.SubmitRequest{Spec: op.spec})
				op.acked = time.Now()
				op.id, op.err = v.ID, err
			}
		}()
	}
	start := time.Now()
	for i, op := range ops {
		op.intended = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(op.intended))
		due <- op
	}
	close(due)
	wg.Wait()
}

// drain fetches each accepted job with GET /v1/jobs/{id} until it is
// terminal.
func drain(ctx context.Context, c *jobd.Client, ops []*svcOp) {
	// Sized to every op: filled before the fetchers start.
	next := make(chan *svcOp, len(ops))
	for _, op := range ops {
		if op.err == nil {
			next <- op
		}
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range next {
				for {
					op.view, op.err = c.Job(ctx, op.id)
					if op.err != nil || op.view.State.Terminal() {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
}

// checkOp applies the per-op correctness gate.
func checkOp(op *svcOp, wantHit bool) error {
	if op.err != nil {
		return op.err
	}
	v := &op.view
	if v.State != jobd.StateDone || len(v.Items) != 1 || !v.Items[0].Done || v.Items[0].Error != "" || v.Finished == nil {
		return fmt.Errorf("job %s: state %s, %d items, error %q", op.id, v.State, len(v.Items), v.Error)
	}
	if v.Items[0].CacheHit != wantHit {
		return fmt.Errorf("job %s: cache_hit=%v, want %v", op.id, v.Items[0].CacheHit, wantHit)
	}
	return nil
}

func (op *svcOp) doneLatency() time.Duration { return op.view.Finished.Sub(op.intended) }

// promScrape reads the values the run compares before and after load.
type promScrape struct{ hits, misses, highwater, gcCycles float64 }

func scrapeMetrics(ctx context.Context, hc *http.Client, url string) (promScrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return promScrape{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return promScrape{}, err
	}
	defer resp.Body.Close()
	doc, err := obs.ParsePromText(resp.Body)
	if err != nil {
		return promScrape{}, fmt.Errorf("scraping %s: %w", url, err)
	}
	var p promScrape
	p.hits, _ = doc.Sample(`jobd_item_cache_total{result="hit"}`)
	p.misses, _ = doc.Sample(`jobd_item_cache_total{result="miss"}`)
	p.highwater, _ = doc.Sample("jobd_queue_depth_highwater")
	p.gcCycles, _ = doc.Sample("go_gc_cycles_total")
	return p, nil
}

// phase is one stretch of open-loop load and what it cost the daemons.
type phase struct {
	ops               []*svcOp
	backendCPU, gwCPU time.Duration
	dials             int64
	before, after     promScrape
}

// runPhase offers load for the given duration, drains every job, and
// reads the daemons' CPU time and counters around it.
func runPhase(ctx context.Context, svc *service, c *jobd.Client, hc *http.Client, dials *atomic.Int64, specs func(i int) json.RawMessage, rate float64, d time.Duration) (*phase, error) {
	n := max(1, int(rate*d.Seconds()))
	p := &phase{ops: make([]*svcOp, n)}
	for i := range p.ops {
		p.ops[i] = &svcOp{spec: specs(i)}
	}
	var err error
	if p.before, err = scrapeMetrics(ctx, hc, svc.backend.url); err != nil {
		return nil, err
	}
	b0, g0, err := svc.cpu()
	if err != nil {
		return nil, err
	}
	d0 := dials.Load()
	openLoop(ctx, c, p.ops, rate)
	drain(ctx, c, p.ops)
	b1, g1, err := svc.cpu()
	if err != nil {
		return nil, err
	}
	p.backendCPU, p.gwCPU, p.dials = b1-b0, g1-g0, dials.Load()-d0
	if p.after, err = scrapeMetrics(ctx, hc, svc.backend.url); err != nil {
		return nil, err
	}
	return p, ctx.Err()
}

func (p *phase) latencies(f func(*svcOp) time.Duration) []float64 {
	var xs []float64
	for _, op := range p.ops {
		if op.err == nil && op.view.Finished != nil {
			xs = append(xs, float64(f(op))/1e6)
		}
	}
	return xs
}

// runSvcWorkload measures one service workload.
func runSvcWorkload(ctx context.Context, o options, rep *report) error {
	shape := shapeOf(o.workload, o.quick)
	bin, err := buildDaemon(ctx, o.root)
	if err != nil {
		return err
	}
	var dials atomic.Int64
	hc := countingClient(&dials)
	defer hc.CloseIdleConnections()
	stateRoot := filepath.Join(o.root, buildDir)

	// Start-up is timed several times on fresh state; the last start
	// serves the load.
	var setups []float64
	var svc *service
	for i := 0; i <= setupRepeats; i++ {
		s, took, err := startService(ctx, hc, bin, stateRoot, shape.gateway)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i == setupRepeats {
			svc = s
			break
		}
		hc.CloseIdleConnections()
		rep.attempt(1, 0)
		if err := s.stop(); err != nil {
			rep.fail(err.Error())
		}
	}
	defer func() {
		if svc != nil {
			svc.kill()
		}
	}()
	client := &jobd.Client{BaseURL: svc.url, HTTP: hc}
	rng := rand.New(rand.NewPCG(o.seed, 0x62656e6368))

	var specs func(i int) json.RawMessage
	var distinct []json.RawMessage // specs whose results the model metrics summarise
	if shape.keys > 0 {
		keys := make([]json.RawMessage, shape.keys)
		for k := range keys {
			keys[k] = tinySpec(o.seed*1000 + uint64(k))
		}
		warm := make([]*svcOp, len(keys))
		for k := range warm {
			warm[k] = &svcOp{spec: keys[k]}
		}
		t0 := time.Now()
		openLoop(ctx, client, warm, 1e9)
		drain(ctx, client, warm)
		rep.layer["client.warm_s"] = time.Since(t0).Seconds()
		checkOps(rep, warm, false)
		distinct = keys
		specs = func(int) json.RawMessage { return keys[rng.IntN(len(keys))] }
	} else {
		base := o.seed << 32
		specs = func(i int) json.RawMessage {
			spec := tinySpec(base + uint64(len(distinct)))
			distinct = append(distinct, spec)
			return spec
		}
	}

	// A traced run splits its time: an untraced half for the overhead
	// comparison, then the half whose layers are broken down.
	d := o.duration()
	if o.traced {
		d /= 2
	}
	load, err := runPhase(ctx, svc, client, hc, &dials, specs, shape.rate, d)
	if err != nil {
		return err
	}
	checkOps(rep, load.ops, shape.hit)
	var traced *phase
	if o.traced {
		if traced, err = runPhase(ctx, svc, client, hc, &dials, specs, shape.rate, d); err != nil {
			return err
		}
		checkOps(rep, traced.ops, shape.hit)
	}
	mem := 0.0
	for _, dm := range svc.daemons() {
		mem += peakRSS(dm.cmd.Process.Pid)
	}

	checkAgainstInProcess(rep, load.ops, shape.hit)
	rep.Meta["ops"] = len(load.ops)
	rep.Meta["rate_per_s"] = shape.rate

	done := load.latencies((*svcOp).doneLatency)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["done_ms_p50"] = median(done)
	rep.e2e["cpu_ms_per_op"] = float64(load.backendCPU+load.gwCPU) / 1e6 / float64(len(load.ops))
	rep.e2e["mem_peak_mb"] = mem

	if traced != nil {
		served := map[string]json.RawMessage{}
		for _, op := range append(load.ops, traced.ops...) {
			if checkOp(op, shape.hit) == nil {
				served[string(op.spec)] = op.view.Items[0].Result
			}
		}
		if err := svcLayerMetrics(ctx, rep, svc, hc, traced, distinct, served); err != nil {
			return err
		}
		rep.layer["trace.overhead_frac"] = ratio(median(traced.latencies((*svcOp).doneLatency)), median(done)) - 1
	}

	s := svc
	svc = nil
	if err := s.stop(); err != nil {
		rep.fail(err.Error())
	}
	return nil
}

func checkOps(rep *report, ops []*svcOp, wantHit bool) {
	var errs []string
	for _, op := range ops {
		if err := checkOp(op, wantHit); err != nil {
			errs = append(errs, err.Error())
		}
	}
	rep.attempt(len(ops), len(errs), errs...)
}

// checkAgainstInProcess compares a few evenly spaced results with
// gpuwalk.Run of the same spec, byte for byte after compaction.
func checkAgainstInProcess(rep *report, ops []*svcOp, wantHit bool) {
	n := min(checkSample, len(ops))
	for i := 0; i < n; i++ {
		op := ops[i*len(ops)/n]
		if checkOp(op, wantHit) != nil {
			continue // already booked as a failure
		}
		cfg, err := decodeSpec(op.spec)
		if err == nil {
			var res gpuwalk.Result
			if res, err = gpuwalk.Run(cfg); err == nil {
				err = sameResult(op.view.Items[0].Result, res)
			}
		}
		if err != nil {
			rep.fail(fmt.Sprintf("job %s against an in-process run: %v", op.id, err))
		}
	}
}

// sameResult reports whether a served result payload is the compact
// JSON of res.
func sameResult(served json.RawMessage, res gpuwalk.Result) error {
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := json.Compact(&got, served); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("served result differs from in-process simulation")
	}
	return nil
}

// svcLayerMetrics breaks the traced phase down by layer.
// served maps each spec to the result the service returned for it.
func svcLayerMetrics(ctx context.Context, rep *report, svc *service, hc *http.Client, p *phase, distinct []json.RawMessage, served map[string]json.RawMessage) error {
	m := rep.layer
	jobs := float64(len(p.ops))
	submit := p.latencies(func(op *svcOp) time.Duration { return op.acked.Sub(op.intended) })
	m["client.submit_ms_p50"] = median(submit)
	m["client.submit_ms_p99"] = quantile(submit, 0.99)
	m["client.done_ms_p99"] = quantile(p.latencies((*svcOp).doneLatency), 0.99)
	m["client.late_ms_p99"] = quantile(p.latencies(func(op *svcOp) time.Duration { return op.sent.Sub(op.intended) }), 0.99)
	m["client.new_conns"] = float64(p.dials)
	m["jobd.cpu_ms_per_job"] = float64(p.backendCPU) / 1e6 / jobs
	m["cluster.cpu_ms_per_job"] = float64(p.gwCPU) / 1e6 / jobs
	hits, misses := p.after.hits-p.before.hits, p.after.misses-p.before.misses
	m["jobd.cache_hit_rate"] = ratio(hits, hits+misses)
	m["jobd.queue_highwater"] = p.after.highwater
	m["jobd.gc_cycles_per_kjob"] = (p.after.gcCycles - p.before.gcCycles) / jobs * 1000

	// The gateway keeps the routing spans of its latest 4096 traces, so
	// sample among the phase's latest jobs.
	stages := stageSamples{}
	recent := p.ops[max(0, len(p.ops)-4000):]
	n := min(traceSample, len(recent))
	for i := 0; i < n; i++ {
		op := recent[i*len(recent)/n]
		if op.err != nil || op.view.Finished == nil {
			continue
		}
		spans, err := fetchTrace(ctx, hc, svc.url, op.id)
		if err != nil {
			return err
		}
		stages.addJob(newSpanTree(spans), float64(op.intended.UnixNano())/1e3, float64(op.view.Finished.UnixNano())/1e3)
	}
	stages.metrics(m)
	rep.Meta["traced_jobs"] = n

	// The simulator's own layers on this workload's spec mix, measured
	// in-process on a sample of its specs and checked against what the
	// service returned for them. The sample takes whole FCFS/SIMT-aware
	// pairs.
	var cfgs []gpuwalk.Config
	var specs []json.RawMessage
	pairs := len(distinct) / 2
	n = min(replaySample/2, pairs)
	for i := 0; i < n; i++ {
		p := i * pairs / n
		for _, spec := range distinct[2*p : 2*p+2] {
			cfg, err := decodeSpec(spec)
			if err != nil {
				return err
			}
			cfgs, specs = append(cfgs, cfg), append(specs, spec)
		}
	}
	gens, builds := make([]float64, 0, setupRepeats), make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		g, b, err := setupOnly(cfgs)
		if err != nil {
			return err
		}
		gens, builds = append(gens, float64(g)/1e6), append(builds, float64(b)/1e6)
	}
	m["workload.generate_ms"] = median(gens)
	m["gpu.build_ms"] = median(builds)
	pass, err := runPass(ctx, cfgs, true)
	if err != nil {
		return err
	}
	pass.book(rep)
	for i := range pass.ops {
		if got, ok := served[string(specs[i])]; ok && pass.ops[i].err == nil {
			if err := sameResult(got, pass.ops[i].res); err != nil {
				rep.fail(fmt.Sprintf("replay %d: %v", i, err))
			}
		}
	}
	if err := simLayerMetrics(m, &pass); err != nil {
		return err
	}
	modelMetrics(m, pass.ops)
	return nil
}

// fetchTrace reads one job's span timeline.
func fetchTrace(ctx context.Context, hc *http.Client, url, id string) ([]span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace of job %s: HTTP %d: %s", id, resp.StatusCode, b)
	}
	return parseChromeSpans(b)
}
