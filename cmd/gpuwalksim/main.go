// Command gpuwalksim runs one workload under one page-walk scheduler on
// the Table I baseline machine and prints a detailed statistics report.
//
// Usage:
//
//	gpuwalksim -workload MVT -sched simt-aware
//	gpuwalksim -workload XSB -sched fcfs -walkers 16 -l2tlb 1024
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gpuwalk"
	"gpuwalk/internal/report"
)

func main() {
	loadConfig := configFlags(flag.CommandLine)
	var (
		list     = flag.Bool("list", false, "list workloads and schedulers, then exit")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON instead of a report")
		csvOut   = flag.Bool("csv", false, "emit the headline metrics as CSV")
		dumpConf = flag.String("dump-config", "", "write the effective config as JSON and exit")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON of the run (load in chrome://tracing or Perfetto)")
		metsOut  = flag.String("metrics", "", "write a per-epoch metrics CSV time series")
		epoch    = flag.Uint64("epoch", 0, "metrics sampling period in cycles (0 = default 10000)")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, g := range gpuwalk.Workloads() {
			kind := "regular"
			if g.Irregular {
				kind = "irregular"
			}
			fmt.Printf("  %-4s %-10s %-9s %s\n", g.Abbrev, g.Name, kind, g.Description)
		}
		fmt.Println("schedulers:")
		for _, k := range gpuwalk.SchedulerKinds() {
			fmt.Printf("  %s\n", k)
		}
		return
	}

	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpuwalksim: %v\n", err)
		os.Exit(1)
	}

	if *dumpConf != "" {
		if err := gpuwalk.SaveConfig(*dumpConf, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "gpuwalksim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("config written to", *dumpConf)
		return
	}

	if *traceOut != "" {
		cfg.Obs.Tracer = gpuwalk.NewTracer()
	}
	if *metsOut != "" {
		cfg.Obs.Metrics = gpuwalk.NewMetrics()
		cfg.Obs.MetricsEpoch = *epoch
	}

	res, err := gpuwalk.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpuwalksim: %v\n", err)
		os.Exit(1)
	}
	if cfg.FaultInject.Enabled() {
		fmt.Fprintf(os.Stderr, "fault injection: %d faults injected (%d serviced), %d walkers killed, %d probes corrupted, %d walk retries\n",
			res.Injected.FaultsInjected, res.IOMMU.FaultsServiced,
			res.Injected.WalkersKilled, res.Injected.ProbesCorrupted, res.IOMMU.WalkRetries)
	}
	if *traceOut != "" {
		if err := cfg.Obs.Tracer.WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "gpuwalksim: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", *traceOut, cfg.Obs.Tracer.Len())
	}
	if *metsOut != "" {
		if err := cfg.Obs.Metrics.WriteCSVFile(*metsOut); err != nil {
			fmt.Fprintf(os.Stderr, "gpuwalksim: writing metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s (%d samples)\n", *metsOut, cfg.Obs.Metrics.Rows())
	}
	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "gpuwalksim: encoding result: %v\n", err)
			os.Exit(1)
		}
	case *csvOut:
		if err := report.WriteCSV(os.Stdout, res); err != nil {
			fmt.Fprintf(os.Stderr, "gpuwalksim: writing CSV: %v\n", err)
			os.Exit(1)
		}
	default:
		report.Write(os.Stdout, res)
	}
}

// configFlags registers on fs the -config flag and the flags that set
// Config fields, and returns the function that builds the effective
// config once fs is parsed. Without -config every flag applies to
// DefaultConfig, defaults included. With -config only the flags given
// on the command line apply, so the file keeps every value no flag
// names.
func configFlags(fs *flag.FlagSet) func() (gpuwalk.Config, error) {
	var (
		confFile = fs.String("config", "", "load a JSON config file; flags given alongside it override its values")
		wl       = fs.String("workload", "MVT", "benchmark abbreviation (see -list)")
		sched    = fs.String("sched", "fcfs", "scheduler: fcfs, random, sjf, batch, simt-aware")
		scale    = fs.Float64("scale", 0.125, "workload footprint scale vs Table II")
		wfs      = fs.Int("wavefronts", 0, "wavefronts per CU (0 = calibrated default)")
		instrs   = fs.Int("instrs", 0, "memory instructions per wavefront (0 = calibrated default)")
		walkers  = fs.Int("walkers", 8, "IOMMU page table walkers")
		l2tlb    = fs.Int("l2tlb", 512, "GPU shared L2 TLB entries")
		buffer   = fs.Int("buffer", 256, "IOMMU buffer entries")
		pagebits = fs.Uint("pagebits", 12, "page size: 12 (4KB) or 21 (2MB large pages)")
		seed     = fs.Uint64("seed", 1, "deterministic seed")

		faultRate  = fs.Float64("fault-rate", 0, "inject page faults: probability a demand walk finds its PTE non-present (0 = off)")
		faultLat   = fs.Uint64("fault-lat", 0, "OS page-fault service latency in cycles (0 = default)")
		walkerKill = fs.Uint64("walker-kill", 0, "kill every Nth demand walk mid-walk, forcing re-dispatch (0 = off)")
		pwcCorrupt = fs.Float64("pwc-corrupt", 0, "probability a PWC probe returns a corrupted walk-length estimate (0 = off)")
		watchdog   = fs.Uint64("watchdog", 0, "fail with a queue dump if no progress for this many cycles (0 = off)")
	)
	set := map[string]func(*gpuwalk.Config){
		"workload":   func(c *gpuwalk.Config) { c.Workload = *wl },
		"sched":      func(c *gpuwalk.Config) { c.Scheduler = gpuwalk.SchedulerKind(*sched) },
		"scale":      func(c *gpuwalk.Config) { c.Gen.Scale = *scale },
		"wavefronts": func(c *gpuwalk.Config) { c.Gen.WavefrontsPerCU = *wfs },
		"instrs":     func(c *gpuwalk.Config) { c.Gen.InstrsPerWavefront = *instrs },
		"walkers":    func(c *gpuwalk.Config) { c.IOMMU.Walkers = *walkers },
		"l2tlb":      func(c *gpuwalk.Config) { c.GPU.L2TLBEntries = *l2tlb },
		"buffer":     func(c *gpuwalk.Config) { c.IOMMU.BufferEntries = *buffer },
		"pagebits":   func(c *gpuwalk.Config) { c.GPU.PageBits = *pagebits },
		"seed": func(c *gpuwalk.Config) {
			c.Gen.Seed, c.Seed, c.FaultInject.Seed = *seed, *seed, *seed
		},
		"fault-rate":  func(c *gpuwalk.Config) { c.FaultInject.NonPresentRate = *faultRate },
		"fault-lat":   func(c *gpuwalk.Config) { c.IOMMU.Faults.ServiceLat = *faultLat },
		"walker-kill": func(c *gpuwalk.Config) { c.FaultInject.WalkerKillPeriod = *walkerKill },
		"pwc-corrupt": func(c *gpuwalk.Config) { c.FaultInject.PWCCorruptRate = *pwcCorrupt },
		"watchdog":    func(c *gpuwalk.Config) { c.WatchdogInterval = *watchdog },
	}
	return func() (gpuwalk.Config, error) {
		cfg, visit := gpuwalk.DefaultConfig(), fs.VisitAll
		if *confFile != "" {
			loaded, err := gpuwalk.LoadConfig(*confFile)
			if err != nil {
				return gpuwalk.Config{}, err
			}
			cfg, visit = loaded, fs.Visit
		}
		visit(func(f *flag.Flag) {
			if apply, ok := set[f.Name]; ok {
				apply(&cfg)
			}
		})
		return cfg, nil
	}
}
