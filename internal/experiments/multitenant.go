package experiments

import (
	"fmt"
	"io"

	"gpuwalk/internal/core"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/workload"
)

// MultiTenantRow measures cross-application translation interference:
// an irregular app and a regular app co-run on the same GPU and share
// the IOMMU (the scenario of Ausavarungnirun et al.'s MASK, which the
// paper cites as orthogonal work). Slowdown is the regular ("victim")
// app's finish time co-running divided by its finish time running
// alone under FCFS — how badly the irregular app's walk storms hurt it
// under each walk scheduler.
type MultiTenantRow struct {
	Scheduler      string
	VictimSlowdown float64
	// AggressorFinish is the irregular app's co-run finish time
	// normalized to FCFS co-run (checking the victim isn't saved by
	// simply starving the aggressor).
	AggressorFinish float64
}

// MultiTenant co-runs the given irregular aggressor and regular victim
// under each scheduler.
func (s *Suite) MultiTenant(aggressor, victim string) ([]MultiTenantRow, error) {
	ag, err := workload.ByName(aggressor)
	if err != nil {
		return nil, err
	}
	vi, err := workload.ByName(victim)
	if err != nil {
		return nil, err
	}
	merged := workload.Merge(aggressor+"+"+victim, ag.Generate(s.Gen), vi.Generate(s.Gen))

	solo, err := s.Run(RunSpec{Workload: victim, Sched: core.KindFCFS})
	if err != nil {
		return nil, err
	}
	soloFinish := float64(solo.Cycles)

	runCo := func(kind core.Kind) (gpu.Result, error) {
		p := s.baseParams(kind)
		sys, err := gpu.NewSystem(p, merged)
		if err != nil {
			return gpu.Result{}, err
		}
		return sys.Run()
	}

	fcfsCo, err := runCo(core.KindFCFS)
	if err != nil {
		return nil, err
	}
	var rows []MultiTenantRow
	for _, kind := range []core.Kind{core.KindFCFS, core.KindSIMTAware} {
		res := fcfsCo
		if kind != core.KindFCFS {
			res, err = runCo(kind)
			if err != nil {
				return nil, err
			}
		}
		if len(res.PerApp) != 2 {
			return nil, fmt.Errorf("experiments: merged run reported %d apps", len(res.PerApp))
		}
		rows = append(rows, MultiTenantRow{
			Scheduler:       string(kind),
			VictimSlowdown:  float64(res.PerApp[1].FinishCycle) / soloFinish,
			AggressorFinish: float64(res.PerApp[0].FinishCycle) / float64(fcfsCo.PerApp[0].FinishCycle),
		})
	}
	return rows, nil
}

// PrintMultiTenant renders the interference comparison, with note, if
// any, in its title.
func PrintMultiTenant(w io.Writer, aggressor, victim string, rows []MultiTenantRow, note string) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Scheduler, f3(r.VictimSlowdown), f3(r.AggressorFinish)})
	}
	printTable(w, titled(fmt.Sprintf("Extension: multi-application interference (%s aggressor, %s victim)", aggressor, victim), note),
		[]string{"scheduler", "victim slowdown vs solo", "aggressor finish vs fcfs"}, out)
}
