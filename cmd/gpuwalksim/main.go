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
	var (
		wl       = flag.String("workload", "MVT", "benchmark abbreviation (see -list)")
		sched    = flag.String("sched", "fcfs", "scheduler: fcfs, random, sjf, batch, simt-aware")
		list     = flag.Bool("list", false, "list workloads and schedulers, then exit")
		scale    = flag.Float64("scale", 0.125, "workload footprint scale vs Table II")
		wfs      = flag.Int("wavefronts", 0, "wavefronts per CU (0 = calibrated default)")
		instrs   = flag.Int("instrs", 0, "memory instructions per wavefront (0 = calibrated default)")
		walkers  = flag.Int("walkers", 8, "IOMMU page table walkers")
		l2tlb    = flag.Int("l2tlb", 512, "GPU shared L2 TLB entries")
		buffer   = flag.Int("buffer", 256, "IOMMU buffer entries")
		pagebits = flag.Uint("pagebits", 12, "page size: 12 (4KB) or 21 (2MB large pages)")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON instead of a report")
		csvOut   = flag.Bool("csv", false, "emit the headline metrics as CSV")
		confFile = flag.String("config", "", "load a JSON config file (flags below still override)")
		dumpConf = flag.String("dump-config", "", "write the effective config as JSON and exit")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON of the run (load in chrome://tracing or Perfetto)")
		metsOut  = flag.String("metrics", "", "write a per-epoch metrics CSV time series")
		epoch    = flag.Uint64("epoch", 0, "metrics sampling period in cycles (0 = default 10000)")

		faultRate  = flag.Float64("fault-rate", 0, "inject page faults: probability a demand walk finds its PTE non-present (0 = off)")
		faultLat   = flag.Uint64("fault-lat", 0, "OS page-fault service latency in cycles (0 = default)")
		walkerKill = flag.Uint64("walker-kill", 0, "kill every Nth demand walk mid-walk, forcing re-dispatch (0 = off)")
		pwcCorrupt = flag.Float64("pwc-corrupt", 0, "probability a PWC probe returns a corrupted walk-length estimate (0 = off)")
		watchdog   = flag.Uint64("watchdog", 0, "fail with a queue dump if no progress for this many cycles (0 = off)")

		fastWalker  = flag.Bool("fast-walker", false, "latency-model walker tier: fixed per-PTE-read latency, no DRAM contention (~2x faster, approximate; see README for the validated error bound)")
		fastWalkLat = flag.Uint64("fast-walker-lat", 0, "per-PTE-read latency of the fast tier in cycles (0 = calibrated default)")
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

	cfg := gpuwalk.DefaultConfig()
	if *confFile != "" {
		loaded, err := gpuwalk.LoadConfig(*confFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpuwalksim: %v\n", err)
			os.Exit(1)
		}
		cfg = loaded
	}
	cfg.Workload = *wl
	cfg.Scheduler = gpuwalk.SchedulerKind(*sched)
	cfg.Gen.Scale = *scale
	cfg.Gen.WavefrontsPerCU = *wfs
	cfg.Gen.InstrsPerWavefront = *instrs
	cfg.Gen.Seed = *seed
	cfg.Seed = *seed
	cfg.IOMMU.Walkers = *walkers
	cfg.IOMMU.BufferEntries = *buffer
	cfg.GPU.L2TLBEntries = *l2tlb
	cfg.GPU.PageBits = *pagebits
	cfg.FaultInject.Seed = *seed
	cfg.FaultInject.NonPresentRate = *faultRate
	cfg.FaultInject.WalkerKillPeriod = *walkerKill
	cfg.FaultInject.PWCCorruptRate = *pwcCorrupt
	cfg.IOMMU.Faults.ServiceLat = *faultLat
	cfg.IOMMU.WalkerLatencyModel = *fastWalker
	cfg.IOMMU.WalkerFixedLat = *fastWalkLat
	cfg.WatchdogInterval = *watchdog

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
