package experiments

import (
	"io"

	"gpuwalk/internal/core"
)

// FairnessRow evaluates the CU-fair extension scheduler (see
// core.IndexedCUFair) against the paper's SIMT-aware scheduler
// on one workload. JainStall is Jain's fairness index over per-CU stall
// cycles (1.0 = perfectly even; 1/CUs = one CU absorbs everything).
type FairnessRow struct {
	Workload      string
	SpeedupSIMT   float64 // SIMT-aware over FCFS
	SpeedupCUFair float64 // CU-fair over FCFS
	JainSIMT      float64
	JainCUFair    float64
}

// JainIndex computes Jain's fairness index of vs: (Σv)² / (n·Σv²).
func JainIndex(vs []uint64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, v := range vs {
		f := float64(v)
		sum += f
		sq += f * f
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(vs)) * sq)
}

// Fairness runs the QoS comparison over the irregular workloads: does
// cross-CU round-robin arbitration retain the scheduling speedup while
// evening out per-CU stalls?
func (s *Suite) Fairness() ([]FairnessRow, error) {
	var rows []FairnessRow
	for _, wl := range IrregularWorkloads {
		fcfs, err := s.Baseline(wl, core.KindFCFS)
		if err != nil {
			return nil, err
		}
		simt, err := s.Baseline(wl, core.KindSIMTAware)
		if err != nil {
			return nil, err
		}
		fair, err := s.Baseline(wl, core.KindCUFair)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FairnessRow{
			Workload:      wl,
			SpeedupSIMT:   float64(fcfs.Cycles) / float64(simt.Cycles),
			SpeedupCUFair: float64(fcfs.Cycles) / float64(fair.Cycles),
			JainSIMT:      JainIndex(simt.PerCUStall),
			JainCUFair:    JainIndex(fair.PerCUStall),
		})
	}
	return rows, nil
}

// PrintFairness renders the QoS comparison.
func PrintFairness(w io.Writer, rows []FairnessRow) {
	var out [][]string
	var s1, s2 []float64
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, f3(r.SpeedupSIMT), f3(r.SpeedupCUFair),
			f3(r.JainSIMT), f3(r.JainCUFair),
		})
		s1 = append(s1, r.SpeedupSIMT)
		s2 = append(s2, r.SpeedupCUFair)
	}
	out = append(out, []string{"Mean", f3(GeoMean(s1)), f3(GeoMean(s2)), "", ""})
	printTable(w, "Extension: CU-fair QoS scheduler vs SIMT-aware",
		[]string{"workload", "simt speedup", "cu-fair speedup", "jain(simt)", "jain(cu-fair)"}, out)
}
