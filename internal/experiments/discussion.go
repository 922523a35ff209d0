package experiments

import (
	"io"

	"gpuwalk/internal/core"
	"gpuwalk/internal/gpu"
)

// LargePageRow quantifies the paper's Section VI discussion ("Why not
// large pages?") for one workload: what 2 MB pages buy on their own,
// and whether SIMT-aware scheduling still helps on top of them.
type LargePageRow struct {
	Workload string
	// Walks4K / Walks2M are page-walk counts under FCFS with 4 KB and
	// 2 MB pages.
	Walks4K uint64
	Walks2M uint64
	// Speedup2M is FCFS-4K cycles over FCFS-2M cycles: the benefit of
	// large pages alone.
	Speedup2M float64
	// SchedOn2M is the SIMT-aware speedup over FCFS with 2 MB pages:
	// how much room scheduling still has once large pages are in place.
	SchedOn2M float64
}

// largePages backs every touched region with 2 MB pages.
var largePages = SensitivityVariant{Name: "2MB", Mutate: func(p *gpu.Params) { p.GPU.PageBits = 21 }}

// LargePages runs the Section VI comparison over the irregular
// workloads.
func (s *Suite) LargePages() ([]LargePageRow, error) {
	n := len(IrregularWorkloads)
	res, err := s.RunAll(append(grid(SensitivityVariant{}, IrregularWorkloads, core.KindFCFS),
		grid(largePages, IrregularWorkloads, core.KindFCFS, core.KindSIMTAware)...))
	if err != nil {
		return nil, err
	}
	var rows []LargePageRow
	for i, wl := range IrregularWorkloads {
		base4k, fcfs2m, simt2m := res[i], res[n+2*i], res[n+2*i+1]
		rows = append(rows, LargePageRow{
			Workload:  wl,
			Walks4K:   base4k.IOMMU.WalksDone,
			Walks2M:   fcfs2m.IOMMU.WalksDone,
			Speedup2M: float64(base4k.Cycles) / float64(fcfs2m.Cycles),
			SchedOn2M: float64(fcfs2m.Cycles) / float64(simt2m.Cycles),
		})
	}
	return rows, nil
}

// PrintLargePages renders the Section VI comparison, with note, if any,
// in its title.
func PrintLargePages(w io.Writer, rows []LargePageRow, note string) {
	var out [][]string
	var sp2m, sched []float64
	for _, r := range rows {
		out = append(out, []string{
			r.Workload,
			f3(float64(r.Walks4K)),
			f3(float64(r.Walks2M)),
			f3(r.Speedup2M),
			f3(r.SchedOn2M),
		})
		sp2m = append(sp2m, r.Speedup2M)
		sched = append(sched, r.SchedOn2M)
	}
	out = append(out, []string{"Mean", "", "", f3(GeoMean(sp2m)), f3(GeoMean(sched))})
	printTable(w, titled("Section VI discussion: 2MB large pages vs 4KB base pages (irregular workloads)", note),
		[]string{"workload", "walks-4K", "walks-2M", "2M speedup", "simt-on-2M"}, out)
}
