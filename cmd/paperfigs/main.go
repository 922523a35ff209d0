// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section. Each figure's data is printed as a text table
// whose rows match what the paper plots.
//
// Usage:
//
//	paperfigs -all                # every table and figure
//	paperfigs -fig 8              # one figure
//	paperfigs -fig 8 -seeds 5     # Figure 8 aggregated over seeds 1-5
//	paperfigs -table 2            # one table
//	paperfigs -fig 8 -scale 1.0   # full Table II footprints (about 7 s on 2 vCPUs)
//
// Simulations run on a pool of GOMAXPROCS workers; GOMAXPROCS=N caps
// it. Each simulation is single-threaded and deterministic, so the
// pool changes only wall time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpuwalk/internal/experiments"
	"gpuwalk/internal/workload"
)

// errUsage reports a command line that does not parse or names
// nothing to regenerate; the usage text is already on stderr.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
}

// run regenerates what args ask for and prints it to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "", "figure to regenerate: 2,3,5,6,8,9,10,11,12,13,14 (comma-separated)")
		table      = fs.String("table", "", "table to regenerate: 1,2 (comma-separated)")
		discussion = fs.Bool("discussion", false, "run the Section VI large-page comparison")
		tenants    = fs.String("multitenant", "", "co-run two apps, e.g. MVT,KMN (aggressor,victim)")
		bars       = fs.Bool("bars", false, "also render bar charts for the normalized figures")
		csvdir     = fs.String("csvdir", "", "also write each figure's data as CSV into this directory")
		all        = fs.Bool("all", false, "regenerate everything")
		scale      = fs.Float64("scale", 0.125, "workload footprint scale vs Table II")
		wfs        = fs.Int("wavefronts", 0, "wavefronts per CU (0 = calibrated default)")
		instrs     = fs.Int("instrs", 0, "memory instructions per wavefront (0 = calibrated default)")
		seed       = fs.Uint64("seed", 1, "deterministic seed")
		seeds      = fs.Int("seeds", 1, "aggregate figures 8-12 over this many seeds (geomean + spread); the rest read the first")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if !*all && *fig == "" && *table == "" && !*discussion && *tenants == "" {
		fs.Usage()
		return errUsage
	}

	// One suite, and so one run cache, per seed. Every figure reads the
	// first; -seeds aggregates figures 8-12 over all of them.
	gen := workload.GenConfig{Scale: *scale, WavefrontsPerCU: *wfs, InstrsPerWavefront: *instrs}
	suites := make([]*experiments.Suite, max(*seeds, 1))
	for i := range suites {
		gen.Seed = *seed + uint64(i)
		suites[i] = experiments.NewSuite(gen, gen.Seed)
	}
	// What reads the first seed alone says so in its title when there
	// are several.
	note := ""
	if len(suites) > 1 {
		note = fmt.Sprintf("seed %d only", *seed)
	}

	for _, t := range pick(*table, *all, []string{"1", "2"}) {
		switch t {
		case "1":
			experiments.PrintTable1(stdout)
		case "2":
			experiments.PrintTable2(stdout)
		default:
			return fmt.Errorf("unknown table %q", t)
		}
	}
	for _, f := range pick(*fig, *all, []string{"2", "3", "5", "6", "8", "9", "10", "11", "12", "13", "14"}) {
		if err := runFig(stdout, suites, f, *bars, *csvdir, note); err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
	}
	if *discussion || *all {
		rows, err := suites[0].LargePages()
		if err != nil {
			return fmt.Errorf("large-page discussion: %w", err)
		}
		experiments.PrintLargePages(stdout, rows, note)
	}
	pair := *tenants
	if *all && pair == "" {
		pair = "MVT,KMN"
	}
	if pair != "" {
		parts := strings.Split(pair, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-multitenant wants aggressor,victim; got %q", pair)
		}
		rows, err := suites[0].MultiTenant(parts[0], parts[1])
		if err != nil {
			return fmt.Errorf("multi-tenant comparison: %w", err)
		}
		experiments.PrintMultiTenant(stdout, parts[0], parts[1], rows, note)
	}
	return nil
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

// ratioFigs are Figures 8-12: one SIMT-aware over FCFS ratio per
// workload, which -seeds aggregates across seeds.
var ratioFigs = map[string]struct {
	fn            func(*experiments.Suite) ([]experiments.RatioRow, error)
	title, column string
}{
	"8":  {(*experiments.Suite).Fig8, "Figure 8: speedup with SIMT-aware page walk scheduler", "speedup over fcfs"},
	"9":  {(*experiments.Suite).Fig9, "Figure 9: GPU stall cycles (normalized to FCFS)", "normalized stalls"},
	"10": {(*experiments.Suite).Fig10, "Figure 10: first-to-last walk latency gap (normalized to FCFS)", "normalized gap"},
	"11": {(*experiments.Suite).Fig11, "Figure 11: page table walks (normalized to FCFS)", "normalized walks"},
	"12": {(*experiments.Suite).Fig12, "Figure 12: distinct wavefronts at GPU L2 TLB per epoch (normalized to FCFS)", "normalized wavefronts"},
}

// runFig prints figure f from the first suite, or for figures 8-12
// from all of them when there are several. note goes into the title of
// a figure printed from the first suite alone.
func runFig(w io.Writer, suites []*experiments.Suite, f string, bars bool, csvdir, note string) error {
	writeCSV := func(header []string, rows [][]string) error {
		if csvdir == "" {
			return nil
		}
		return experiments.WriteCSV(csvdir, "fig"+f, header, rows)
	}
	s := suites[0]
	if r, ok := ratioFigs[f]; ok {
		if len(suites) > 1 {
			rows, err := experiments.MultiSeedRatio(suites, r.fn)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("%s — %d seeds", r.title, len(suites))
			experiments.PrintAggRows(w, title, rows)
			if bars {
				experiments.PlotAggRows(w, title+" (bars)", rows)
			}
			return writeCSV(experiments.AggCSV(rows))
		}
		rows, err := r.fn(s)
		if err != nil {
			return err
		}
		experiments.PrintRatioRows(w, r.title, r.column, rows)
		if bars {
			experiments.PlotRatioRows(w, r.title+" (bars)", rows)
		}
		return writeCSV(experiments.RatioCSV(r.column, rows))
	}
	switch f {
	case "2":
		rows, err := s.Fig2()
		if err != nil {
			return err
		}
		experiments.PrintFig2(w, rows, note)
		if bars {
			experiments.PlotFig2(w, rows, note)
		}
		return writeCSV(experiments.Fig2CSV(rows))
	case "3":
		rows, err := s.Fig3()
		if err != nil {
			return err
		}
		experiments.PrintFig3(w, rows, note)
		return writeCSV(experiments.Fig3CSV(rows))
	case "5":
		rows, err := s.Fig5()
		if err != nil {
			return err
		}
		experiments.PrintFig5(w, rows, note)
	case "6":
		rows, err := s.Fig6()
		if err != nil {
			return err
		}
		experiments.PrintFig6(w, rows, note)
	case "13", "14":
		variants, title := experiments.Fig13Variants(), "Figure 13: sensitivity to L2 TLB size and walker count"
		if f == "14" {
			variants, title = experiments.Fig14Variants(), "Figure 14: sensitivity to IOMMU buffer size"
		}
		rows, err := s.Sensitivity(variants)
		if err != nil {
			return err
		}
		experiments.PrintSensitivity(w, title, rows, note)
		return writeCSV(experiments.SensitivityCSV(rows))
	default:
		return fmt.Errorf("unknown figure %q", f)
	}
	return nil
}
