// Package gpuwalk is a cycle-level simulator of GPU address translation
// that reproduces "Scheduling Page Table Walks for Irregular GPU
// Applications" (Shin et al., ISCA 2018).
//
// The simulated machine is an HSA-style system: a GPU (compute units,
// wavefronts, coalescer, per-CU L1 TLBs and a shared L2 TLB, two-level
// data caches) whose TLB misses are serviced by an IOMMU (two TLB
// levels, a pending-walk buffer, page walk caches, and a pool of
// hardware page table walkers) walking a real four-level x86-64 page
// table held in simulated DDR3 DRAM.
//
// The scheduling point the paper studies — which pending page-table walk
// a freed walker services next — is pluggable. Built-in policies are
// FCFS (baseline), Random (strawman), SJF-only and Batch-only
// (ablations), and the paper's full SIMT-aware scheduler.
//
// Quick start:
//
//	cfg := gpuwalk.DefaultConfig()
//	cfg.Workload = "MVT"
//	cfg.Scheduler = gpuwalk.SIMTAware
//	res, err := gpuwalk.Run(cfg)
//	// res.Cycles, res.StallCycles, res.PageWalks(), ...
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package gpuwalk

import (
	"context"
	"fmt"

	"gpuwalk/internal/core"
	"gpuwalk/internal/dram"
	"gpuwalk/internal/faultinject"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/iommu"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/workload"
)

// Re-exported model types. The whole implementation lives under
// internal/; these aliases are the supported surface.
type (
	// GPUConfig configures the GPU model (Table I upper half).
	GPUConfig = gpu.Config
	// DRAMConfig configures the DDR3 model.
	DRAMConfig = dram.Config
	// IOMMUConfig configures the IOMMU (buffer, walkers, PWCs).
	IOMMUConfig = iommu.Config
	// GenConfig controls workload trace generation.
	GenConfig = workload.GenConfig
	// Trace is a generated or loaded workload trace.
	Trace = workload.Trace
	// WavefrontTrace is one wavefront's instruction stream in a Trace.
	WavefrontTrace = workload.WavefrontTrace
	// MemInstr is one SIMD memory instruction's per-lane addresses.
	MemInstr = workload.MemInstr
	// Result carries every metric a run produces.
	Result = gpu.Result
	// Scheduler is the page-walk scheduling interface; implement it to
	// plug in a custom policy (see examples/customsched).
	Scheduler = core.Scheduler
	// Request is one pending page-walk request as seen by a Scheduler.
	Request = core.Request
	// SchedulerKind names a built-in scheduling policy.
	SchedulerKind = core.Kind
	// SchedulerOptions tunes built-in policy construction.
	SchedulerOptions = core.Options
	// Workload describes one Table II benchmark generator.
	Workload = workload.Generator
	// Tracer records structured simulation events for Chrome
	// trace_event export (see docs/OBSERVABILITY.md).
	Tracer = obs.Tracer
	// Metrics is a registry of closure-sampled columns, evaluated per
	// epoch into a CSV time series.
	Metrics = obs.Registry
	// FaultInjectConfig configures deterministic fault injection
	// (non-present PTEs, walker kills, PWC probe corruption); see
	// docs/FAULTS.md.
	FaultInjectConfig = faultinject.Config
	// FaultConfig configures the IOMMU's OS page-fault service model
	// (queue bound, service slots, latency).
	FaultConfig = iommu.FaultConfig
	// InjectedStats counts the faults an injection-enabled run injected.
	InjectedStats = faultinject.Stats
	// Progress is a live snapshot of a running simulation's forward
	// motion (cycle, instructions done/total, walks), delivered through
	// ObsConfig.Progress. See docs/OBSERVABILITY.md §6.
	Progress = gpu.Progress
)

// NewTracer returns an empty event tracer. Pass it via Config.Obs to
// record a run; write the result with Tracer.WriteChromeFile.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an empty metrics registry. Pass it via Config.Obs
// to sample a run; write the result with Metrics.WriteCSVFile.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Built-in scheduling policies. CUFair is this repo's follow-on
// extension (cross-CU QoS on top of batching + SJF); the rest are the
// paper's policies.
const (
	FCFS      = core.KindFCFS
	Random    = core.KindRandom
	SJFOnly   = core.KindSJF
	BatchOnly = core.KindBatch
	SIMTAware = core.KindSIMTAware
	CUFair    = core.KindCUFair
)

// SchedulerKinds lists the built-in policies.
func SchedulerKinds() []SchedulerKind { return core.Kinds() }

// Workloads returns the twelve Table II benchmark generators.
func Workloads() []*Workload { return workload.Registry() }

// WorkloadNames returns the benchmark abbreviations (XSB, MVT, ...).
func WorkloadNames() []string { return workload.Names() }

// IrregularWorkloadNames returns the six irregular benchmarks.
func IrregularWorkloadNames() []string { return workload.IrregularNames() }

// WorkloadByName finds a benchmark generator by abbreviation.
func WorkloadByName(name string) (*Workload, error) { return workload.ByName(name) }

// Config is a complete run description.
type Config struct {
	GPU   GPUConfig
	DRAM  DRAMConfig
	IOMMU IOMMUConfig

	// Scheduler selects the page-walk scheduling policy.
	Scheduler SchedulerKind
	// SchedOpts tunes the policy (aging threshold, random seed).
	SchedOpts SchedulerOptions
	// CustomScheduler, when non-nil, overrides Scheduler with a
	// user-provided policy (see examples/customsched).
	CustomScheduler Scheduler

	// Workload is the benchmark abbreviation (see WorkloadNames).
	Workload string
	// Gen controls trace generation (scale, instruction counts, seed).
	Gen GenConfig

	// Seed randomizes OS frame placement.
	Seed uint64

	// FaultInject enables deterministic fault injection. The zero value
	// injects nothing and leaves the fault model detached, so fault-free
	// runs behave (and trace) exactly as without it.
	FaultInject FaultInjectConfig

	// WatchdogInterval arms a no-progress watchdog: if no instruction,
	// walk, or fault service completes across this many cycles while
	// work remains, the run fails with a diagnostic dump of every queue
	// instead of spinning forever. 0 disables.
	WatchdogInterval uint64

	// Obs holds runtime observability handles. Like CustomScheduler
	// they are live objects, not data, so they are never serialized.
	Obs ObsConfig `json:"-"`
}

// ObsConfig attaches observability to a run. Both fields are optional;
// a nil Tracer and nil Metrics cost the simulation one pointer check
// per hook site (see docs/MODEL.md).
type ObsConfig struct {
	// Tracer, when non-nil, records structured events from every model
	// layer for Chrome trace_event export.
	Tracer *Tracer
	// Metrics, when non-nil, is sampled every MetricsEpoch cycles (and
	// once at the end of the run) into a CSV time series.
	Metrics *Metrics
	// MetricsEpoch is the sampling period in cycles (0 uses
	// gpu.DefaultMetricsEpoch, 10000).
	MetricsEpoch uint64
	// Progress, when non-nil, receives periodic Progress snapshots on
	// the simulation goroutine: one baseline at cycle 0, one every
	// ProgressEvery cycles, and one final snapshot when the engine
	// stops. It must not block or mutate model state; publish across
	// goroutines via atomics. Leaving it nil costs nothing and keeps
	// the run byte-identical to an unhooked one.
	Progress func(Progress)
	// ProgressEvery is the publication period in cycles (0 uses
	// gpu.DefaultProgressEvery, 50000).
	ProgressEvery uint64
}

// DefaultConfig returns the paper's Table I baseline with the FCFS
// scheduler and the MVT workload at the default scaled footprint.
func DefaultConfig() Config {
	return Config{
		GPU:       gpu.DefaultConfig(),
		DRAM:      dram.DefaultConfig(),
		IOMMU:     iommu.DefaultConfig(),
		Scheduler: FCFS,
		Workload:  "MVT",
		Gen:       GenConfig{}.WithDefaults(),
	}
}

// Generate builds the workload trace cfg describes.
func Generate(cfg Config) (*Trace, error) {
	g, err := workload.ByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	gen := cfg.Gen
	gen.CUs = cfg.GPU.CUs
	gen.WavefrontWidth = cfg.GPU.WavefrontWidth
	return g.Generate(gen), nil
}

// Run generates the configured workload and simulates it to completion.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled the
// simulation engine aborts promptly (within a few thousand events) and
// RunContext returns ctx's error instead of a Result. This is what
// makes a cancelled gpuwalkd HTTP request actually stop its simulation.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	tr, err := Generate(cfg)
	if err != nil {
		return Result{}, err
	}
	return RunTraceContext(ctx, cfg, tr)
}

// RunTrace simulates a pre-built trace under cfg (ignoring cfg.Workload
// and cfg.Gen). Use it to replay saved traces or hand-built ones.
func RunTrace(cfg Config, tr *Trace) (Result, error) {
	return RunTraceContext(context.Background(), cfg, tr)
}

// RunTraceContext is RunTrace with cancellation (see RunContext).
func RunTraceContext(ctx context.Context, cfg Config, tr *Trace) (Result, error) {
	sys, err := gpu.NewSystem(gpu.Params{
		GPU:              cfg.GPU,
		DRAM:             cfg.DRAM,
		IOMMU:            cfg.IOMMU,
		SchedKind:        cfg.Scheduler,
		SchedOpts:        cfg.SchedOpts,
		Scheduler:        cfg.CustomScheduler,
		Seed:             cfg.Seed,
		FaultInject:      cfg.FaultInject,
		WatchdogInterval: cfg.WatchdogInterval,
		Tracer:           cfg.Obs.Tracer,
		Metrics:          cfg.Obs.Metrics,
		MetricsEpoch:     cfg.Obs.MetricsEpoch,
		Progress:         cfg.Obs.Progress,
		ProgressEvery:    cfg.Obs.ProgressEvery,
	}, tr)
	if err != nil {
		return Result{}, err
	}
	return sys.RunContext(ctx)
}

// Speedup returns how much faster b is than a (a.Cycles / b.Cycles).
func Speedup(a, b Result) float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(a.Cycles) / float64(b.Cycles)
}

// Compare runs the same configuration under two schedulers and returns
// both results plus the speedup of the second over the first. The same
// trace (and the same frame placement) is used for both runs.
func Compare(cfg Config, base, test SchedulerKind) (baseRes, testRes Result, speedup float64, err error) {
	tr, err := Generate(cfg)
	if err != nil {
		return Result{}, Result{}, 0, err
	}
	c := cfg
	c.Scheduler = base
	baseRes, err = RunTrace(c, tr)
	if err != nil {
		return Result{}, Result{}, 0, fmt.Errorf("base run: %w", err)
	}
	c.Scheduler = test
	testRes, err = RunTrace(c, tr)
	if err != nil {
		return Result{}, Result{}, 0, fmt.Errorf("test run: %w", err)
	}
	return baseRes, testRes, Speedup(baseRes, testRes), nil
}
