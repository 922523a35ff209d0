// Multitenant: co-run an irregular "aggressor" (MVT) with a regular
// "victim" (K-Means) on the same GPU — a MASK-style multi-application
// scenario — and show how each page-walk scheduler shares the IOMMU
// between them. Under FCFS, the victim's handful of walks queue behind
// the aggressor's storms. SIMT-aware's shortest-job-first rule serves
// them sooner, but only trims the victim's slowdown (12.34x to 10.56x
// at the default configuration); it does not restore it.
package main

import (
	"fmt"
	"log"

	"gpuwalk"
	"gpuwalk/internal/workload"
)

func main() {
	cfg := gpuwalk.DefaultConfig()

	mvt, err := gpuwalk.WorkloadByName("MVT")
	if err != nil {
		log.Fatal(err)
	}
	kmn, err := gpuwalk.WorkloadByName("KMN")
	if err != nil {
		log.Fatal(err)
	}
	gen := cfg.Gen
	gen.CUs = cfg.GPU.CUs
	gen.WavefrontWidth = cfg.GPU.WavefrontWidth
	merged := workload.Merge("MVT+KMN", mvt.Generate(gen), kmn.Generate(gen))

	// The victim's solo finish time is the interference-free baseline.
	solo := cfg
	solo.Workload = "KMN"
	soloRes, err := gpuwalk.Run(solo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KMN alone finishes at cycle %d\n\n", soloRes.Cycles)

	fmt.Printf("%-12s %16s %16s %10s\n", "scheduler", "MVT finish", "KMN finish", "KMN slowdown")
	for _, kind := range []gpuwalk.SchedulerKind{gpuwalk.FCFS, gpuwalk.SIMTAware} {
		c := cfg
		c.Scheduler = kind
		res, err := gpuwalk.RunTrace(c, merged)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %16d %16d %9.2fx\n", kind,
			res.PerApp[0].FinishCycle, res.PerApp[1].FinishCycle,
			float64(res.PerApp[1].FinishCycle)/float64(soloRes.Cycles))
	}
}
