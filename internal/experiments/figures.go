package experiments

import (
	"fmt"
	"io"

	"gpuwalk/internal/core"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/textplot"
)

// Fig2Row is one cluster of Figure 2: speedups of each scheduler
// normalized to the Random scheduler.
type Fig2Row struct {
	Workload  string
	Random    float64 // always 1.0
	FCFS      float64
	SIMTAware float64
}

// Fig2 reproduces Figure 2 (performance impact of page walk scheduling)
// over the motivational workloads.
func (s *Suite) Fig2() ([]Fig2Row, error) {
	res, err := s.RunAll(grid(SensitivityVariant{}, Fig2Workloads, core.KindRandom, core.KindFCFS, core.KindSIMTAware))
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	for i, wl := range Fig2Workloads {
		rnd, fcfs, simt := res[3*i], res[3*i+1], res[3*i+2]
		rows = append(rows, Fig2Row{
			Workload:  wl,
			Random:    1,
			FCFS:      float64(rnd.Cycles) / float64(fcfs.Cycles),
			SIMTAware: float64(rnd.Cycles) / float64(simt.Cycles),
		})
	}
	return rows, nil
}

// PrintFig2 renders Figure 2, with note, if any, in its title.
func PrintFig2(w io.Writer, rows []Fig2Row, note string) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, f3(r.Random), f3(r.FCFS), f3(r.SIMTAware)}
	}
	printTable(w, titled("Figure 2: speedup over random scheduler", note),
		[]string{"workload", "random", "fcfs", "simt-aware"}, out)
}

// Fig3Row is one workload's Figure 3 series: the fraction of SIMD
// instructions (with at least one walk) whose page walks needed each
// bucketed number of memory accesses.
type Fig3Row struct {
	Workload  string
	Buckets   []string  // bucket labels, e.g. "1-16"
	Fractions []float64 // same length as Buckets
}

// Fig3 reproduces Figure 3 (distribution of per-instruction translation
// work) under the baseline FCFS scheduler.
func (s *Suite) Fig3() ([]Fig3Row, error) {
	fcfs, err := s.RunAll(grid(SensitivityVariant{}, Fig2Workloads, core.KindFCFS))
	if err != nil {
		return nil, err
	}
	var rows []Fig3Row
	for i, res := range fcfs {
		bounds, _, _ := res.Instr.AccessHist.Buckets()
		labels := make([]string, len(bounds))
		lo := uint64(1)
		for j, b := range bounds {
			labels[j] = fmt.Sprintf("%d-%d", lo, b)
			lo = b + 1
		}
		rows = append(rows, Fig3Row{
			Workload:  Fig2Workloads[i],
			Buckets:   labels,
			Fractions: res.Instr.AccessHist.Fractions(),
		})
	}
	return rows, nil
}

// PrintFig3 renders Figure 3, with note, if any, in its title.
func PrintFig3(w io.Writer, rows []Fig3Row, note string) {
	if len(rows) == 0 {
		return
	}
	header := append([]string{"workload"}, rows[0].Buckets...)
	out := make([][]string, len(rows))
	for i, r := range rows {
		cells := []string{r.Workload}
		for _, f := range r.Fractions {
			cells = append(cells, f3(f))
		}
		out[i] = cells
	}
	printTable(w, titled("Figure 3: fraction of SIMD instructions by page-walk memory accesses", note),
		header, out)
}

// Fig5Row is one bar of Figure 5: the fraction of multi-walk
// instructions whose walks interleaved with another instruction's.
type Fig5Row struct {
	Workload string
	Fraction float64
}

// Fig5 reproduces Figure 5 under the baseline FCFS scheduler.
func (s *Suite) Fig5() ([]Fig5Row, error) {
	fcfs, err := s.RunAll(grid(SensitivityVariant{}, Fig2Workloads, core.KindFCFS))
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for i, res := range fcfs {
		frac := 0.0
		if res.Instr.Multi > 0 {
			frac = float64(res.Instr.Interleaved) / float64(res.Instr.Multi)
		}
		rows = append(rows, Fig5Row{Workload: Fig2Workloads[i], Fraction: frac})
	}
	return rows, nil
}

// PrintFig5 renders Figure 5, with note, if any, in its title.
func PrintFig5(w io.Writer, rows []Fig5Row, note string) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, f3(r.Fraction)}
	}
	printTable(w, titled("Figure 5: fraction of instructions with interleaved page walks (FCFS)", note),
		[]string{"workload", "fraction"}, out)
}

// Fig6Row is one cluster of Figure 6: the average latency of the first-
// and last-completed walk per multi-walk instruction, normalized to the
// first.
type Fig6Row struct {
	Workload string
	First    float64 // always 1.0
	Last     float64
}

// Fig6 reproduces Figure 6 under the baseline FCFS scheduler.
func (s *Suite) Fig6() ([]Fig6Row, error) {
	fcfs, err := s.RunAll(grid(SensitivityVariant{}, Fig2Workloads, core.KindFCFS))
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for i, res := range fcfs {
		last := 0.0
		if res.Instr.MeanFirstLat > 0 {
			last = res.Instr.MeanLastLat / res.Instr.MeanFirstLat
		}
		rows = append(rows, Fig6Row{Workload: Fig2Workloads[i], First: 1, Last: last})
	}
	return rows, nil
}

// PrintFig6 renders Figure 6, with note, if any, in its title.
func PrintFig6(w io.Writer, rows []Fig6Row, note string) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, f3(r.First), f3(r.Last)}
	}
	printTable(w, titled("Figure 6: normalized latency of first- vs last-completed walk (FCFS)", note),
		[]string{"workload", "first", "last"}, out)
}

// RatioRow is one bar of the Figures 8-12 family: a per-workload ratio
// of the SIMT-aware run to the FCFS run.
type RatioRow struct {
	Workload  string
	Irregular bool
	Value     float64
}

// ratioFig computes metric(simt)/metric(fcfs) — or its inverse for
// speedups — per workload.
func (s *Suite) ratioFig(workloads []string, metric func(gpu.Result) float64, invert bool) ([]RatioRow, error) {
	res, err := s.RunAll(grid(SensitivityVariant{}, workloads, core.KindFCFS, core.KindSIMTAware))
	if err != nil {
		return nil, err
	}
	var rows []RatioRow
	for i, wl := range workloads {
		den, num := metric(res[2*i]), metric(res[2*i+1])
		v := 0.0
		switch {
		case invert && num > 0:
			v = den / num
		case !invert && den > 0:
			v = num / den
		}
		g, err := s.generator(wl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RatioRow{Workload: wl, Irregular: g, Value: v})
	}
	return rows, nil
}

func (s *Suite) generator(wl string) (bool, error) {
	tr, err := s.trace(wl)
	if err != nil {
		return false, err
	}
	return tr.Irregular, nil
}

// Fig8 reproduces Figure 8: speedup of the SIMT-aware scheduler over
// FCFS for all twelve workloads.
func (s *Suite) Fig8() ([]RatioRow, error) {
	return s.ratioFig(append(append([]string{}, IrregularWorkloads...), RegularWorkloads...),
		func(r gpu.Result) float64 { return float64(r.Cycles) }, true)
}

// Fig9 reproduces Figure 9: CU stall cycles with the SIMT-aware
// scheduler, normalized to FCFS.
func (s *Suite) Fig9() ([]RatioRow, error) {
	return s.ratioFig(append(append([]string{}, IrregularWorkloads...), RegularWorkloads...),
		func(r gpu.Result) float64 { return float64(r.StallCycles) }, false)
}

// Fig10 reproduces Figure 10: the first-to-last walk latency gap with
// the SIMT-aware scheduler, normalized to FCFS (irregular workloads).
func (s *Suite) Fig10() ([]RatioRow, error) {
	return s.ratioFig(IrregularWorkloads,
		func(r gpu.Result) float64 { return r.Instr.MeanLastLat - r.Instr.MeanFirstLat }, false)
}

// Fig11 reproduces Figure 11: the number of page table walks with the
// SIMT-aware scheduler, normalized to FCFS (irregular workloads).
func (s *Suite) Fig11() ([]RatioRow, error) {
	return s.ratioFig(IrregularWorkloads,
		func(r gpu.Result) float64 { return float64(r.IOMMU.WalksDone) }, false)
}

// Fig12 reproduces Figure 12: distinct wavefronts accessing the GPU L2
// TLB per epoch with the SIMT-aware scheduler, normalized to FCFS.
func (s *Suite) Fig12() ([]RatioRow, error) {
	return s.ratioFig(IrregularWorkloads,
		func(r gpu.Result) float64 { return r.EpochMeanWavefronts }, false)
}

// PrintRatioRows renders a Figures 8-12 style table with a geometric
// mean per group.
func PrintRatioRows(w io.Writer, title, column string, rows []RatioRow) {
	var out [][]string
	var irr, reg []float64
	for _, r := range rows {
		out = append(out, []string{r.Workload, f3(r.Value)})
		if r.Irregular {
			irr = append(irr, r.Value)
		} else {
			reg = append(reg, r.Value)
		}
	}
	if len(irr) > 0 {
		out = append(out, []string{"Mean(irregular)", f3(GeoMean(irr))})
	}
	if len(reg) > 0 {
		out = append(out, []string{"Mean(regular)", f3(GeoMean(reg))})
	}
	printTable(w, title, []string{"workload", column}, out)
}

// PlotRatioRows renders a Figures 8-12 style bar chart with a reference
// tick at 1.0 (the FCFS baseline).
func PlotRatioRows(w io.Writer, title string, rows []RatioRow) {
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	for i, r := range rows {
		labels[i] = r.Workload
		values[i] = r.Value
	}
	textplot.HBar(w, title, labels, values, textplot.Options{Ref: 1})
}

// PlotFig2 renders Figure 2 as grouped bars normalized to Random, with
// note, if any, in its title.
func PlotFig2(w io.Writer, rows []Fig2Row, note string) {
	var labels []string
	var values []float64
	for _, r := range rows {
		labels = append(labels, r.Workload+"/fcfs", r.Workload+"/simt")
		values = append(values, r.FCFS, r.SIMTAware)
	}
	textplot.HBar(w, titled("Figure 2 (bars): speedup over random scheduler", note),
		labels, values, textplot.Options{Ref: 1})
}

// SensitivityVariant describes one machine variant of Figures 13-14.
type SensitivityVariant struct {
	Name   string
	Mutate func(*gpu.Params)
}

// Fig13Variants returns the three Figure 13 machine variants.
func Fig13Variants() []SensitivityVariant {
	return []SensitivityVariant{
		{Name: "13a: 1024 L2 TLB, 8 walkers", Mutate: withL2TLB(1024)},
		{Name: "13b: 512 L2 TLB, 16 walkers", Mutate: withWalkers(16)},
		{Name: "13c: 1024 L2 TLB, 16 walkers", Mutate: combine(withL2TLB(1024), withWalkers(16))},
	}
}

// Fig14Variants returns the two Figure 14 IOMMU-buffer variants.
func Fig14Variants() []SensitivityVariant {
	return []SensitivityVariant{
		{Name: "14a: 128 IOMMU buffer entries", Mutate: withBuffer(128)},
		{Name: "14b: 512 IOMMU buffer entries", Mutate: withBuffer(512)},
	}
}

// SensitivityRow is one workload's speedup under one machine variant.
type SensitivityRow struct {
	Variant  string
	Workload string
	Speedup  float64 // SIMT-aware over FCFS
}

// Sensitivity runs SIMT-aware vs FCFS for the irregular workloads under
// each machine variant (Figures 13 and 14).
func (s *Suite) Sensitivity(variants []SensitivityVariant) ([]SensitivityRow, error) {
	var specs []RunSpec
	for _, v := range variants {
		specs = append(specs, grid(v, IrregularWorkloads, core.KindFCFS, core.KindSIMTAware)...)
	}
	res, err := s.RunAll(specs)
	if err != nil {
		return nil, err
	}
	var rows []SensitivityRow
	for i := 0; i < len(specs); i += 2 {
		fcfs, simt := res[i], res[i+1]
		rows = append(rows, SensitivityRow{
			Variant:  specs[i].Variant,
			Workload: specs[i].Workload,
			Speedup:  float64(fcfs.Cycles) / float64(simt.Cycles),
		})
	}
	return rows, nil
}

// PrintSensitivity renders Figure 13/14 style tables grouped by
// variant, with note, if any, in each title.
func PrintSensitivity(w io.Writer, title string, rows []SensitivityRow, note string) {
	byVariant := map[string][]SensitivityRow{}
	for _, r := range rows {
		byVariant[r.Variant] = append(byVariant[r.Variant], r)
	}
	for _, v := range sortedVariants(byVariant) {
		var out [][]string
		var vals []float64
		for _, r := range byVariant[v] {
			out = append(out, []string{r.Workload, f3(r.Speedup)})
			vals = append(vals, r.Speedup)
		}
		out = append(out, []string{"Mean", f3(GeoMean(vals))})
		printTable(w, titled(fmt.Sprintf("%s — %s", title, v), note),
			[]string{"workload", "speedup over fcfs"}, out)
	}
}
