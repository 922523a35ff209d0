package experiments

import (
	"io"

	"gpuwalk/internal/textplot"
)

// AggRow is a per-workload ratio aggregated across seeds: the geometric
// mean plus the observed spread. Scaled runs carry visible run-to-run
// variance (see EXPERIMENTS.md on Figure 13); aggregating across seeds
// is how to read them.
type AggRow struct {
	Workload  string
	Irregular bool
	Mean      float64 // geometric mean across seeds
	Min, Max  float64
}

// MultiSeedRatio evaluates one of the ratio figures (Fig8..Fig12, as a
// method expression like (*Suite).Fig8) on each suite, one suite per
// seed, and aggregates per workload. The figure's runs stay in each
// suite's cache for the next figure.
func MultiSeedRatio(suites []*Suite, fig func(*Suite) ([]RatioRow, error)) ([]AggRow, error) {
	byWl := map[string]*AggRow{}
	vals := map[string][]float64{}
	var order []string
	for _, s := range suites {
		rows, err := fig(s)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			a, ok := byWl[r.Workload]
			if !ok {
				a = &AggRow{Workload: r.Workload, Irregular: r.Irregular, Min: r.Value, Max: r.Value}
				byWl[r.Workload] = a
				order = append(order, r.Workload)
			}
			vals[r.Workload] = append(vals[r.Workload], r.Value)
			if r.Value < a.Min {
				a.Min = r.Value
			}
			if r.Value > a.Max {
				a.Max = r.Value
			}
		}
	}
	var out []AggRow
	for _, wl := range order {
		a := byWl[wl]
		a.Mean = GeoMean(vals[wl])
		out = append(out, *a)
	}
	return out, nil
}

// PrintAggRows renders a multi-seed aggregate table with group geomeans.
func PrintAggRows(wr io.Writer, title string, rows []AggRow) {
	var out [][]string
	var irr, reg []float64
	for _, r := range rows {
		out = append(out, []string{r.Workload, f3(r.Mean), f3(r.Min), f3(r.Max)})
		if r.Irregular {
			irr = append(irr, r.Mean)
		} else {
			reg = append(reg, r.Mean)
		}
	}
	if len(irr) > 0 {
		out = append(out, []string{"Mean(irregular)", f3(GeoMean(irr)), "", ""})
	}
	if len(reg) > 0 {
		out = append(out, []string{"Mean(regular)", f3(GeoMean(reg)), "", ""})
	}
	printTable(wr, title, []string{"workload", "geomean", "min", "max"}, out)
}

// PlotAggRows renders a multi-seed aggregate's geomeans as bars with a
// reference tick at 1.0 (the FCFS baseline).
func PlotAggRows(w io.Writer, title string, rows []AggRow) {
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	for i, r := range rows {
		labels[i], values[i] = r.Workload, r.Mean
	}
	textplot.HBar(w, title, labels, values, textplot.Options{Ref: 1})
}
