package main

// The in-process simulator sweeps. Each configuration is generated,
// built and run through the same public entry points gpuwalk.Run uses,
// timed separately, so set-up (trace generation and system build) and
// the run itself are measured apart and the run's event count is read
// off the engine.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"gpuwalk"
	"gpuwalk/internal/gpu"
)

var (
	irregularWorkloads = []string{"XSB", "MVT", "ATX", "NW", "BIC", "GEV"}
	regularWorkloads   = []string{"SSP", "MIS", "CLR", "BCK", "KMN", "HOT"}
	sweepScheds        = []gpuwalk.SchedulerKind{gpuwalk.FCFS, gpuwalk.SIMTAware}
)

// sweepConfigs lists one sweep's configurations in run order. The
// shape (scale 0.05, 4 wavefronts per CU, 16 instructions each) makes
// every irregular config fill the 256-entry pending-walk buffer, while
// the regular ones do at most a few hundred walks. Quick mode keeps two
// workloads at the tiny service shape.
func sweepConfigs(workload string, seed uint64, quick bool) []gpuwalk.Config {
	wls, seeds := irregularWorkloads, []uint64{seed, seed + 1}
	if workload == "sim-regular" {
		wls, seeds = regularWorkloads, []uint64{seed}
	}
	if quick {
		wls = wls[len(wls)-2:]
	}
	var cfgs []gpuwalk.Config
	for _, s := range seeds {
		for _, wl := range wls {
			for _, sched := range sweepScheds {
				cfg := gpuwalk.DefaultConfig()
				cfg.Workload = wl
				cfg.Scheduler = sched
				cfg.Gen.Scale, cfg.Gen.WavefrontsPerCU, cfg.Gen.InstrsPerWavefront = 0.05, 4, 16
				if quick {
					cfg.Gen.Scale, cfg.Gen.WavefrontsPerCU, cfg.Gen.InstrsPerWavefront = 0.02, 2, 6
				}
				cfg.Gen.Seed = s
				cfg.Seed = s
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// simOp is one simulated configuration and what it cost.
type simOp struct {
	cfg    gpuwalk.Config
	res    gpuwalk.Result
	err    error
	events uint64
	gen    time.Duration // trace generation
	build  time.Duration // gpu.NewSystem, including the page-table premap
	run    time.Duration // (*gpu.System).RunContext
	cpu    time.Duration // process CPU time during RunContext
	// Heap allocations during RunContext; traced passes only.
	mallocs, allocBytes uint64
}

// simPass is one run over a list of configurations.
type simPass struct {
	ops     []simOp
	profile []byte // CPU profile of the whole pass; traced passes only
}

func (p *simPass) sum(f func(*simOp) float64) float64 {
	t := 0.0
	for i := range p.ops {
		t += f(&p.ops[i])
	}
	return t
}

func (p *simPass) setup() time.Duration {
	return time.Duration(p.sum(func(o *simOp) float64 { return float64(o.gen + o.build) }))
}

func (p *simPass) runTime() time.Duration {
	return time.Duration(p.sum(func(o *simOp) float64 { return float64(o.run) }))
}

func (p *simPass) cpuTime() time.Duration {
	return time.Duration(p.sum(func(o *simOp) float64 { return float64(o.cpu) }))
}

func (p *simPass) events() float64 {
	return p.sum(func(o *simOp) float64 { return float64(o.events) })
}

// book records the pass's runs, and those that failed, in rep.
func (p *simPass) book(rep *report) {
	var errs []string
	for i := range p.ops {
		if o := &p.ops[i]; o.err != nil {
			errs = append(errs, fmt.Sprintf("%s/%s seed %d: %v", o.cfg.Workload, o.cfg.Scheduler, o.cfg.Seed, o.err))
		}
	}
	rep.attempt(len(p.ops), len(errs), errs...)
}

// resultsSHA256 digests the compact Result JSON of every run in config
// order; a failed run contributes its error text.
func (p *simPass) resultsSHA256() string {
	h := sha256.New()
	for i := range p.ops {
		b, err := json.Marshal(p.ops[i].res)
		if p.ops[i].err != nil || err != nil {
			b = []byte(fmt.Sprint("error: ", p.ops[i].err, err))
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func systemParams(cfg gpuwalk.Config) gpu.Params {
	return gpu.Params{
		GPU:              cfg.GPU,
		DRAM:             cfg.DRAM,
		IOMMU:            cfg.IOMMU,
		SchedKind:        cfg.Scheduler,
		SchedOpts:        cfg.SchedOpts,
		Seed:             cfg.Seed,
		FaultInject:      cfg.FaultInject,
		WatchdogInterval: cfg.WatchdogInterval,
	}
}

// buildSystem generates cfg's trace and builds its system, timing each.
func buildSystem(cfg gpuwalk.Config) (sys *gpu.System, gen, build time.Duration, err error) {
	t0 := time.Now()
	tr, err := gpuwalk.Generate(cfg)
	t1 := time.Now()
	if err != nil {
		return nil, t1.Sub(t0), 0, err
	}
	sys, err = gpu.NewSystem(systemParams(cfg), tr)
	return sys, t1.Sub(t0), time.Since(t1), err
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass simulates every configuration once, in order. A traced pass
// also records a CPU profile and the heap allocations of each run.
func runPass(ctx context.Context, cfgs []gpuwalk.Config, traced bool) (simPass, error) {
	pass := simPass{ops: make([]simOp, len(cfgs))}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return pass, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	for i, cfg := range cfgs {
		op := &pass.ops[i]
		op.cfg = cfg
		var sys *gpu.System
		sys, op.gen, op.build, op.err = buildSystem(cfg)
		if op.err != nil {
			continue
		}
		var before, after runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
		}
		cpu0, t0 := processCPU(), time.Now()
		op.res, op.err = sys.RunContext(ctx)
		op.run, op.cpu = time.Since(t0), processCPU()-cpu0
		if traced {
			runtime.ReadMemStats(&after)
			op.mallocs = after.Mallocs - before.Mallocs
			op.allocBytes = after.TotalAlloc - before.TotalAlloc
		}
		op.events = sys.Engine().Dispatched()
	}
	if traced {
		pprof.StopCPUProfile()
		pass.profile = prof.Bytes()
	}
	return pass, ctx.Err()
}

// setupOnly generates and builds every configuration without running
// it, returning the summed generation and build times.
func setupOnly(cfgs []gpuwalk.Config) (gen, build time.Duration, err error) {
	for _, cfg := range cfgs {
		_, g, b, err := buildSystem(cfg)
		if err != nil {
			return 0, 0, err
		}
		gen += g
		build += b
	}
	return gen, build, nil
}

// setupRepeats is how many extra times a run builds its inputs to
// report a median set-up time.
const setupRepeats = 10

// runSimWorkload measures one sweep: passes over its configurations
// until the time budget is spent (at least one), then repeated
// set-ups. A traced run adds one profiled pass after the timed ones.
func runSimWorkload(ctx context.Context, o options, rep *report) error {
	cfgs := sweepConfigs(o.workload, o.seed, o.quick)
	runtime.GC()
	resetPeakRSS()
	var passes []simPass
	start := time.Now()
	for {
		p, err := runPass(ctx, cfgs, false)
		if err != nil {
			return err
		}
		passes = append(passes, p)
		// Stop when another pass of the same length would overrun.
		if el := time.Since(start); el+el/time.Duration(len(passes)) > o.duration() {
			break
		}
	}
	memPeak := peakRSS(os.Getpid())

	var setups, gens, builds []float64
	for _, p := range passes {
		setups = append(setups, p.setup().Seconds())
	}
	for i := 0; i < setupRepeats; i++ {
		g, b, err := setupOnly(cfgs)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (g + b).Seconds())
		gens = append(gens, float64(g)/1e6)
		builds = append(builds, float64(b)/1e6)
	}

	sha := passes[0].resultsSHA256()
	for _, p := range passes {
		p.book(rep)
		if s := p.resultsSHA256(); s != sha {
			rep.fail(fmt.Sprintf("results differ between passes: %s vs %s", s, sha))
		}
	}
	rep.Meta["results_sha256"] = sha
	rep.Meta["runs_per_pass"] = len(cfgs)
	rep.Meta["passes"] = len(passes)

	var runs, cpus []float64
	for _, p := range passes {
		runs = append(runs, float64(p.runTime())/1e6)
		cpus = append(cpus, float64(p.cpuTime())/1e6)
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["done_ms_p50"] = median(runs)
	rep.e2e["cpu_ms_per_op"] = median(cpus)
	rep.e2e["mem_peak_mb"] = memPeak

	if !o.traced {
		return nil
	}
	traced, err := runPass(ctx, cfgs, true)
	if err != nil {
		return err
	}
	traced.book(rep)
	if s := traced.resultsSHA256(); s != sha {
		rep.fail(fmt.Sprintf("traced results differ from untraced: %s vs %s", s, sha))
	}
	m := rep.layer
	m["workload.generate_ms"] = median(gens)
	m["gpu.build_ms"] = median(builds)
	if err := simLayerMetrics(m, &traced); err != nil {
		return err
	}
	untracedNs := ratio(float64(passes[len(passes)-1].runTime()), passes[len(passes)-1].events())
	m["trace.overhead_frac"] = ratio(m["gpu.run_ns_per_event"], untracedNs) - 1
	modelMetrics(m, traced.ops)
	return nil
}

// simLayerMetrics derives the host-time breakdown of a traced pass:
// run time per dispatched event, split across packages by the pass's
// CPU-profile shares, and heap allocations per event.
func simLayerMetrics(m metricSet, p *simPass) error {
	samples, err := parseProfile(p.profile)
	if err != nil {
		return err
	}
	events := p.events()
	nsPerEvent := ratio(float64(p.runTime()), events)
	m["gpu.run_ns_per_event"] = nsPerEvent
	m["sim.events"] = events
	m["gpu.allocs_per_event"] = ratio(p.sum(func(o *simOp) float64 { return float64(o.mallocs) }), events)
	m["gpu.alloc_bytes_per_event"] = ratio(p.sum(func(o *simOp) float64 { return float64(o.allocBytes) }), events)
	for pkg, share := range groupShares(samples) {
		m["cpu."+pkg+"_ns_per_event"] = share * nsPerEvent
	}
	return nil
}

// modelMetrics summarises what the simulated hardware did across the
// successful runs: per-run means of counts, pooled rates, and the
// SIMT-aware scheduler's geomean speedup over FCFS on matching configs.
func modelMetrics(m metricSet, ops []simOp) {
	var (
		n                            float64
		cycles, walks, prio          float64
		l2h, l2t, l1h, l1t, pwh, pwt float64
		rowHit, rowAll               float64
		waitSum, waitN, latSum, latN float64
		qSum, qN                     float64
		fcfs                         = map[string]float64{}
		simt                         = map[string]float64{}
	)
	for i := range ops {
		o := &ops[i]
		if o.err != nil {
			continue
		}
		r := &o.res
		n++
		cycles += float64(r.Cycles)
		walks += float64(r.IOMMU.WalksDone)
		prio += float64(r.DRAM.PrioReads)
		l2h, l2t = l2h+float64(r.GPUL2TLB.Lookups.Hits), l2t+float64(r.GPUL2TLB.Lookups.Total)
		l1h, l1t = l1h+float64(r.L1D.Lookups.Hits), l1t+float64(r.L1D.Lookups.Total)
		pwh, pwt = pwh+float64(r.PWC.Lookups.Hits), pwt+float64(r.PWC.Lookups.Total)
		rowHit += float64(r.DRAM.RowHits)
		rowAll += float64(r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowConflicts)
		waitSum, waitN = waitSum+r.IOMMU.BufferWait.Value()*float64(r.IOMMU.BufferWait.N()), waitN+float64(r.IOMMU.BufferWait.N())
		latSum, latN = latSum+r.IOMMU.WalkLatency.Value()*float64(r.IOMMU.WalkLatency.N()), latN+float64(r.IOMMU.WalkLatency.N())
		qSum, qN = qSum+r.DRAM.QueueLat.Value()*float64(r.DRAM.QueueLat.N()), qN+float64(r.DRAM.QueueLat.N())
		key := fmt.Sprint(o.cfg.Workload, o.cfg.Seed, o.cfg.Gen)
		switch o.cfg.Scheduler {
		case gpuwalk.FCFS:
			fcfs[key] = float64(r.Cycles)
		case gpuwalk.SIMTAware:
			simt[key] = float64(r.Cycles)
		}
	}
	var speedups []float64
	for key, c := range fcfs {
		if s, ok := simt[key]; ok && s > 0 {
			speedups = append(speedups, c/s)
		}
	}
	m["model.cycles"] = ratio(cycles, n)
	m["model.simt_speedup"] = geomean(speedups)
	m["gpu.l2tlb_hit_rate"] = ratio(l2h, l2t)
	m["cache.l1d_hit_rate"] = ratio(l1h, l1t)
	m["iommu.walks"] = ratio(walks, n)
	m["iommu.buffer_wait_cycles"] = ratio(waitSum, waitN)
	m["iommu.walk_cycles"] = ratio(latSum, latN)
	m["pwc.hit_rate"] = ratio(pwh, pwt)
	m["dram.prio_reads"] = ratio(prio, n)
	m["dram.row_hit_rate"] = ratio(rowHit, rowAll)
	m["dram.queue_cycles"] = ratio(qSum, qN)
}
