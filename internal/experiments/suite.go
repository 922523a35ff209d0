// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each FigN function runs the required
// configuration sweep and returns the rows the paper plots; the Print
// helpers render them as text tables. Runs are cached within a Suite so
// figures that share the same underlying runs (8-12 all compare the same
// FCFS and SIMT-aware baselines) reuse them.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"gpuwalk/internal/core"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/workload"
)

// Suite is a cache of simulation runs under one workload scaling.
// Run and the FigN methods are safe for concurrent use; Prewarm runs a
// batch of configurations on a worker pool so subsequent figure methods
// hit the cache.
type Suite struct {
	// Gen controls trace generation for every run in the suite.
	Gen workload.GenConfig
	// Seed randomizes OS frame placement.
	Seed uint64

	mu     sync.Mutex
	traces map[string]*workload.Trace
	runs   map[runKey]gpu.Result
}

type runKey struct {
	workload string
	sched    core.Kind
	variant  string
}

// NewSuite creates a suite. A zero Gen uses the scaled defaults.
func NewSuite(gen workload.GenConfig, seed uint64) *Suite {
	return &Suite{
		Gen:    gen.WithDefaults(),
		Seed:   seed,
		traces: make(map[string]*workload.Trace),
		runs:   make(map[runKey]gpu.Result),
	}
}

// trace returns (building once) the trace for a workload.
func (s *Suite) trace(name string) (*workload.Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tr, ok := s.traces[name]; ok {
		return tr, nil
	}
	g, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	tr := g.Generate(s.Gen)
	s.traces[name] = tr
	return tr, nil
}

// baseParams returns the Table I machine with the given scheduler.
func (s *Suite) baseParams(kind core.Kind) gpu.Params {
	p := gpu.DefaultParams()
	p.GPU.WavefrontWidth = s.Gen.WavefrontWidth
	p.SchedKind = kind
	p.SchedOpts = core.Options{Seed: s.Seed ^ 0xdead}
	p.Seed = s.Seed
	return p
}

// Run simulates workload wl under scheduler kind, with mutate applied to
// the baseline parameters. variant must uniquely tag the mutation ("" for
// the baseline) — it is the cache key.
func (s *Suite) Run(wl string, kind core.Kind, variant string, mutate func(*gpu.Params)) (gpu.Result, error) {
	key := runKey{workload: wl, sched: kind, variant: variant}
	s.mu.Lock()
	r, ok := s.runs[key]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	tr, err := s.trace(wl)
	if err != nil {
		return gpu.Result{}, err
	}
	p := s.baseParams(kind)
	if mutate != nil {
		mutate(&p)
	}
	sys, err := gpu.NewSystem(p, tr)
	if err != nil {
		return gpu.Result{}, err
	}
	r, err = sys.Run()
	if err != nil {
		return gpu.Result{}, fmt.Errorf("%s/%s%s: %w", wl, kind, variant, err)
	}
	s.mu.Lock()
	s.runs[key] = r
	s.mu.Unlock()
	return r, nil
}

// RunSpec names one configuration for Prewarm.
type RunSpec struct {
	Workload string
	Sched    core.Kind
	Variant  string
	Mutate   func(*gpu.Params)
}

// BaselineSpecs returns the (workload, scheduler) grid at the Table I
// machine, covering everything Figures 2-12 need.
func BaselineSpecs() []RunSpec {
	var specs []RunSpec
	all := append(append([]string{}, IrregularWorkloads...), RegularWorkloads...)
	for _, wl := range all {
		for _, k := range []core.Kind{core.KindFCFS, core.KindSIMTAware} {
			specs = append(specs, RunSpec{Workload: wl, Sched: k})
		}
	}
	for _, wl := range Fig2Workloads {
		specs = append(specs, RunSpec{Workload: wl, Sched: core.KindRandom})
	}
	return specs
}

// SensitivitySpecs returns the Figure 13/14 grid.
func SensitivitySpecs() []RunSpec {
	var specs []RunSpec
	for _, v := range append(Fig13Variants(), Fig14Variants()...) {
		for _, wl := range IrregularWorkloads {
			for _, k := range []core.Kind{core.KindFCFS, core.KindSIMTAware} {
				specs = append(specs, RunSpec{Workload: wl, Sched: k, Variant: v.Name, Mutate: v.Mutate})
			}
		}
	}
	return specs
}

// Prewarm executes specs on a pool of workers wide (0 = GOMAXPROCS) and
// populates the cache. Individual simulations stay single-threaded and
// deterministic; only independent runs execute concurrently. The first
// simulation error (if any) is returned after all workers finish.
func (s *Suite) Prewarm(workers int, specs []RunSpec) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	work := make(chan RunSpec)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for spec := range work {
				if _, err := s.Run(spec.Workload, spec.Sched, spec.Variant, spec.Mutate); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, spec := range specs {
		work <- spec
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Baseline runs workload wl under kind with the Table I machine.
func (s *Suite) Baseline(wl string, kind core.Kind) (gpu.Result, error) {
	return s.Run(wl, kind, "", nil)
}

// IrregularWorkloads is the paper's irregular set, in Figure 8 order.
var IrregularWorkloads = []string{"XSB", "MVT", "ATX", "NW", "BIC", "GEV"}

// RegularWorkloads is the paper's regular set, in Figure 8 order.
var RegularWorkloads = []string{"SSP", "MIS", "CLR", "BCK", "KMN", "HOT"}

// Fig2Workloads is the motivational subset used by Figures 2, 3, 5, 6.
var Fig2Workloads = []string{"MVT", "ATX", "BIC", "GEV"}

// GeoMean returns the geometric mean of vs (0 if empty or any v <= 0).
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// printTable renders rows of (label, values...) with a header.
func printTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// sortedVariants returns map keys in deterministic order.
func sortedVariants[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Machine configuration variants used by the sensitivity figures.

func withL2TLB(entries int) func(*gpu.Params) {
	return func(p *gpu.Params) { p.GPU.L2TLBEntries = entries }
}

func withWalkers(n int) func(*gpu.Params) {
	return func(p *gpu.Params) { p.IOMMU.Walkers = n }
}

func withBuffer(entries int) func(*gpu.Params) {
	return func(p *gpu.Params) { p.IOMMU.BufferEntries = entries }
}

func combine(ms ...func(*gpu.Params)) func(*gpu.Params) {
	return func(p *gpu.Params) {
		for _, m := range ms {
			m(p)
		}
	}
}
