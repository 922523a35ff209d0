// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each FigN method lists the runs its figure
// needs, gets their results from the Suite's run cache and returns the
// rows the paper plots; the Print helpers render them as text tables.
// Figures on one Suite share runs (8-12 all compare the same FCFS and
// SIMT-aware baselines).
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

// Suite is a cache of simulation runs under one workload scaling and
// seed. RunAll simulates the runs a figure needs that the cache lacks
// on one worker pool. Its methods are safe for concurrent use.
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

// RunSpec names one run: a workload under a scheduler on the Table I
// machine with Mutate applied. Variant must uniquely tag the mutation
// ("" for the baseline): it is the cache key.
type RunSpec struct {
	Workload string
	Sched    core.Kind
	Variant  string
	Mutate   func(*gpu.Params)
}

func (r RunSpec) key() runKey {
	return runKey{workload: r.Workload, sched: r.Sched, variant: r.Variant}
}

// grid lists every workload under every scheduler kind on machine
// variant v (the zero variant is the Table I machine), kinds varying
// fastest.
func grid(v SensitivityVariant, workloads []string, kinds ...core.Kind) []RunSpec {
	specs := make([]RunSpec, 0, len(workloads)*len(kinds))
	for _, wl := range workloads {
		for _, k := range kinds {
			specs = append(specs, RunSpec{Workload: wl, Sched: k, Variant: v.Name, Mutate: v.Mutate})
		}
	}
	return specs
}

// Run returns the result of one spec, simulating it unless cached.
func (s *Suite) Run(spec RunSpec) (gpu.Result, error) {
	res, err := s.RunAll([]RunSpec{spec})
	if err != nil {
		return gpu.Result{}, err
	}
	return res[0], nil
}

// RunAll returns the results of specs, in order. The specs the cache
// lacks run on one pool of runtime.GOMAXPROCS(0) workers. Each
// simulation is single-threaded and deterministic, so the pool changes
// only wall time. The error is the first failing spec's, in spec order.
func (s *Suite) RunAll(specs []RunSpec) ([]gpu.Result, error) {
	var todo []RunSpec
	s.mu.Lock()
	for _, spec := range specs {
		if _, ok := s.runs[spec.key()]; !ok {
			todo = append(todo, spec)
		}
	}
	s.mu.Unlock()

	errs := make([]error, len(todo))
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(todo)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = s.simulate(todo[i])
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	res := make([]gpu.Result, len(specs))
	for i, spec := range specs {
		res[i] = s.runs[spec.key()]
	}
	return res, nil
}

// simulate runs spec and caches its result.
func (s *Suite) simulate(spec RunSpec) error {
	tr, err := s.trace(spec.Workload)
	if err != nil {
		return err
	}
	p := s.baseParams(spec.Sched)
	if spec.Mutate != nil {
		spec.Mutate(&p)
	}
	sys, err := gpu.NewSystem(p, tr)
	if err != nil {
		return err
	}
	r, err := sys.Run()
	if err != nil {
		return fmt.Errorf("%s/%s%s: %w", spec.Workload, spec.Sched, spec.Variant, err)
	}
	s.mu.Lock()
	s.runs[spec.key()] = r
	s.mu.Unlock()
	return nil
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

// titled appends note, if any, to a figure's title.
func titled(title, note string) string {
	if note == "" {
		return title
	}
	return title + " — " + note
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
