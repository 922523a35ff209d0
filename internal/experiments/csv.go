package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"gpuwalk/internal/atomicio"
)

// WriteCSV writes header + rows to dir/name.csv, creating dir if
// needed. The write is atomic (temp file + rename), so a failure never
// leaves a truncated CSV behind.
func WriteCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(dir, name+".csv"), func(w io.Writer) error {
		return writeCSVTo(w, header, rows)
	})
}

// writeCSVTo writes one CSV document to w.
func writeCSVTo(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// Fig2CSV converts Figure 2 rows for WriteCSV.
func Fig2CSV(rows []Fig2Row) (header []string, out [][]string) {
	header = []string{"workload", "random", "fcfs", "simt_aware"}
	for _, r := range rows {
		out = append(out, []string{r.Workload, ftoa(r.Random), ftoa(r.FCFS), ftoa(r.SIMTAware)})
	}
	return header, out
}

// Fig3CSV converts Figure 3 rows for WriteCSV.
func Fig3CSV(rows []Fig3Row) (header []string, out [][]string) {
	header = []string{"workload"}
	if len(rows) > 0 {
		header = append(header, rows[0].Buckets...)
	}
	for _, r := range rows {
		cells := []string{r.Workload}
		for _, f := range r.Fractions {
			cells = append(cells, ftoa(f))
		}
		out = append(out, cells)
	}
	return header, out
}

// RatioCSV converts a Figures 8-12 style row set for WriteCSV.
func RatioCSV(column string, rows []RatioRow) (header []string, out [][]string) {
	header = []string{"workload", "irregular", column}
	for _, r := range rows {
		out = append(out, []string{r.Workload, fmt.Sprint(r.Irregular), ftoa(r.Value)})
	}
	return header, out
}

// AggCSV converts a multi-seed aggregate for WriteCSV.
func AggCSV(rows []AggRow) (header []string, out [][]string) {
	header = []string{"workload", "geomean", "min", "max"}
	for _, r := range rows {
		out = append(out, []string{r.Workload, ftoa(r.Mean), ftoa(r.Min), ftoa(r.Max)})
	}
	return header, out
}

// SensitivityCSV converts Figure 13/14 rows for WriteCSV.
func SensitivityCSV(rows []SensitivityRow) (header []string, out [][]string) {
	header = []string{"variant", "workload", "speedup"}
	for _, r := range rows {
		out = append(out, []string{r.Variant, r.Workload, ftoa(r.Speedup)})
	}
	return header, out
}
