// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section. Each figure's data is printed as a text table
// whose rows match what the paper plots.
//
// Usage:
//
//	paperfigs -all                # every table and figure
//	paperfigs -fig 8              # one figure
//	paperfigs -table 2            # one table
//	paperfigs -fig 8 -scale 1.0   # full Table II footprints (about 7 s on 2 vCPUs)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpuwalk/internal/experiments"
	"gpuwalk/internal/workload"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 2,3,5,6,8,9,10,11,12,13,14 (comma-separated)")
		table      = flag.String("table", "", "table to regenerate: 1,2 (comma-separated)")
		discussion = flag.Bool("discussion", false, "run the Section VI large-page comparison")
		tenants    = flag.String("multitenant", "", "co-run two apps, e.g. MVT,KMN (aggressor,victim)")
		bars       = flag.Bool("bars", false, "also render bar charts for the normalized figures")
		csvdir     = flag.String("csvdir", "", "also write each figure's data as CSV into this directory")
		all        = flag.Bool("all", false, "regenerate everything")
		scale      = flag.Float64("scale", 0.125, "workload footprint scale vs Table II")
		wfs        = flag.Int("wavefronts", 0, "wavefronts per CU (0 = calibrated default)")
		instrs     = flag.Int("instrs", 0, "memory instructions per wavefront (0 = calibrated default)")
		seed       = flag.Uint64("seed", 1, "deterministic seed")
		jobs       = flag.Int("j", 0, "parallel simulations (0 = GOMAXPROCS); results are unaffected")
		seeds      = flag.Int("seeds", 1, "aggregate figures 8-12 over this many seeds (geomean + spread)")
	)
	flag.Parse()

	if !*all && *fig == "" && *table == "" && !*discussion && *tenants == "" {
		flag.Usage()
		os.Exit(2)
	}

	suite := experiments.NewSuite(workload.GenConfig{
		Scale:              *scale,
		WavefrontsPerCU:    *wfs,
		InstrsPerWavefront: *instrs,
		Seed:               *seed,
	}, *seed)

	tables := pick(*table, *all, []string{"1", "2"})
	figs := pick(*fig, *all, []string{"2", "3", "5", "6", "8", "9", "10", "11", "12", "13", "14"})

	// Fill the run cache on a worker pool; each simulation is
	// single-threaded and deterministic, so parallelism only affects
	// wall time.
	if len(figs) > 0 && *seeds <= 1 {
		var specs []experiments.RunSpec
		specs = append(specs, experiments.BaselineSpecs()...)
		for _, f := range figs {
			if f == "13" || f == "14" {
				specs = append(specs, experiments.SensitivitySpecs()...)
				break
			}
		}
		if err := suite.Prewarm(*jobs, specs); err != nil {
			fatalf("prewarm: %v", err)
		}
	}

	for _, t := range tables {
		switch t {
		case "1":
			experiments.PrintTable1(os.Stdout)
		case "2":
			experiments.PrintTable2(os.Stdout)
		default:
			fatalf("unknown table %q", t)
		}
	}
	for _, f := range figs {
		if *seeds > 1 {
			if done, err := runFigMultiSeed(f, *seed, *seeds, *jobs, suite.Gen); err != nil {
				fatalf("figure %s: %v", f, err)
			} else if done {
				continue
			}
		}
		if err := runFig(suite, f, *bars, *csvdir); err != nil {
			fatalf("figure %s: %v", f, err)
		}
	}
	if *discussion || *all {
		rows, err := suite.LargePages()
		if err != nil {
			fatalf("large-page discussion: %v", err)
		}
		experiments.PrintLargePages(os.Stdout, rows)
	}
	pair := *tenants
	if *all && pair == "" {
		pair = "MVT,KMN"
	}
	if pair != "" {
		parts := strings.Split(pair, ",")
		if len(parts) != 2 {
			fatalf("-multitenant wants aggressor,victim; got %q", pair)
		}
		rows, err := suite.MultiTenant(parts[0], parts[1])
		if err != nil {
			fatalf("multi-tenant comparison: %v", err)
		}
		experiments.PrintMultiTenant(os.Stdout, parts[0], parts[1], rows)
	}
}

// runFigMultiSeed handles the ratio figures under -seeds N; it reports
// done=false for figures without a multi-seed form.
func runFigMultiSeed(f string, baseSeed uint64, n, jobs int, gen workload.GenConfig) (bool, error) {
	figs := map[string]struct {
		fn    func(*experiments.Suite) ([]experiments.RatioRow, error)
		title string
	}{
		"8":  {(*experiments.Suite).Fig8, "Figure 8: speedup with SIMT-aware scheduler"},
		"9":  {(*experiments.Suite).Fig9, "Figure 9: normalized GPU stall cycles"},
		"10": {(*experiments.Suite).Fig10, "Figure 10: normalized first-to-last walk gap"},
		"11": {(*experiments.Suite).Fig11, "Figure 11: normalized page table walks"},
		"12": {(*experiments.Suite).Fig12, "Figure 12: normalized distinct wavefronts per epoch"},
	}
	spec, ok := figs[f]
	if !ok {
		return false, nil
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = baseSeed + uint64(i)
	}
	rows, err := experiments.MultiSeedRatio(gen, seeds, spec.fn, jobs)
	if err != nil {
		return true, err
	}
	experiments.PrintAggRows(os.Stdout, fmt.Sprintf("%s — %d seeds", spec.title, n), rows)
	return true, nil
}

func pick(csv string, all bool, everything []string) []string {
	if all {
		return everything
	}
	if csv == "" {
		return nil
	}
	return strings.Split(csv, ",")
}

func runFig(s *experiments.Suite, f string, bars bool, csvdir string) error {
	writeCSV := func(name string, header []string, rows [][]string) error {
		if csvdir == "" {
			return nil
		}
		return experiments.WriteCSV(csvdir, name, header, rows)
	}
	ratio := func(rows []experiments.RatioRow, title, column string) error {
		experiments.PrintRatioRows(os.Stdout, title, column, rows)
		if bars {
			experiments.PlotRatioRows(os.Stdout, title+" (bars)", rows)
		}
		h, out := experiments.RatioCSV(column, rows)
		return writeCSV("fig"+f, h, out)
	}
	switch f {
	case "2":
		rows, err := s.Fig2()
		if err != nil {
			return err
		}
		experiments.PrintFig2(os.Stdout, rows)
		if bars {
			experiments.PlotFig2(os.Stdout, rows)
		}
		h, out := experiments.Fig2CSV(rows)
		return writeCSV("fig2", h, out)
	case "3":
		rows, err := s.Fig3()
		if err != nil {
			return err
		}
		experiments.PrintFig3(os.Stdout, rows)
		h, out := experiments.Fig3CSV(rows)
		return writeCSV("fig3", h, out)
	case "5":
		rows, err := s.Fig5()
		if err != nil {
			return err
		}
		experiments.PrintFig5(os.Stdout, rows)
	case "6":
		rows, err := s.Fig6()
		if err != nil {
			return err
		}
		experiments.PrintFig6(os.Stdout, rows)
	case "8":
		rows, err := s.Fig8()
		if err != nil {
			return err
		}
		return ratio(rows, "Figure 8: speedup with SIMT-aware page walk scheduler", "speedup over fcfs")
	case "9":
		rows, err := s.Fig9()
		if err != nil {
			return err
		}
		return ratio(rows, "Figure 9: GPU stall cycles (normalized to FCFS)", "normalized stalls")
	case "10":
		rows, err := s.Fig10()
		if err != nil {
			return err
		}
		return ratio(rows, "Figure 10: first-to-last walk latency gap (normalized to FCFS)", "normalized gap")
	case "11":
		rows, err := s.Fig11()
		if err != nil {
			return err
		}
		return ratio(rows, "Figure 11: page table walks (normalized to FCFS)", "normalized walks")
	case "12":
		rows, err := s.Fig12()
		if err != nil {
			return err
		}
		return ratio(rows, "Figure 12: distinct wavefronts at GPU L2 TLB per epoch (normalized to FCFS)", "normalized wavefronts")
	case "13":
		rows, err := s.Sensitivity(experiments.Fig13Variants())
		if err != nil {
			return err
		}
		experiments.PrintSensitivity(os.Stdout, "Figure 13: sensitivity to L2 TLB size and walker count", rows)
		h, out := experiments.SensitivityCSV(rows)
		return writeCSV("fig13", h, out)
	case "14":
		rows, err := s.Sensitivity(experiments.Fig14Variants())
		if err != nil {
			return err
		}
		experiments.PrintSensitivity(os.Stdout, "Figure 14: sensitivity to IOMMU buffer size", rows)
		h, out := experiments.SensitivityCSV(rows)
		return writeCSV("fig14", h, out)
	default:
		return fmt.Errorf("unknown figure %q", f)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperfigs: "+format+"\n", args...)
	os.Exit(1)
}
