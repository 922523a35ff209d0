package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"gpuwalk/internal/core"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/workload"
)

// microSuite is small enough for unit tests.
func microSuite() *Suite {
	return NewSuite(workload.GenConfig{
		WavefrontsPerCU:    2,
		InstrsPerWavefront: 6,
		Scale:              0.05,
		Seed:               3,
	}, 3)
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %f", g)
	}
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %f, want 4", g)
	}
	if g := GeoMean([]float64{1, 0}); g != 0 {
		t.Errorf("GeoMean with zero = %f", g)
	}
}

func TestSuiteCaching(t *testing.T) {
	s := microSuite()
	a, err := s.Run(RunSpec{Workload: "MVT", Sched: core.KindFCFS})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(RunSpec{Workload: "MVT", Sched: core.KindFCFS})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Error("cached run differs from original")
	}
	if len(s.runs) != 1 {
		t.Errorf("cache has %d entries, want 1", len(s.runs))
	}
	// A variant must not collide with the baseline.
	if _, err := s.Run(RunSpec{Workload: "MVT", Sched: core.KindFCFS, Variant: "v", Mutate: withWalkers(16)}); err != nil {
		t.Fatal(err)
	}
	if len(s.runs) != 2 {
		t.Errorf("cache has %d entries after variant, want 2", len(s.runs))
	}
}

func TestFig2Shape(t *testing.T) {
	s := microSuite()
	rows, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig2Workloads) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Random != 1 {
			t.Errorf("%s: random bar = %f, want 1", r.Workload, r.Random)
		}
		if r.FCFS <= 0 || r.SIMTAware <= 0 {
			t.Errorf("%s: non-positive speedups", r.Workload)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	s := microSuite()
	rows, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Buckets) != 6 || len(r.Fractions) != 6 {
			t.Fatalf("%s: bucket shape %d/%d", r.Workload, len(r.Buckets), len(r.Fractions))
		}
		sum := 0.0
		for _, f := range r.Fractions {
			sum += f
		}
		if sum > 1.0001 {
			t.Errorf("%s: fractions sum to %f", r.Workload, sum)
		}
	}
}

func TestFig8CoversAllWorkloads(t *testing.T) {
	s := microSuite()
	rows, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("Fig8 rows = %d, want 12", len(rows))
	}
	irr := 0
	for _, r := range rows {
		if r.Value <= 0 {
			t.Errorf("%s: speedup %f", r.Workload, r.Value)
		}
		if r.Irregular {
			irr++
		}
	}
	if irr != 6 {
		t.Errorf("irregular rows = %d", irr)
	}
}

func TestSensitivityVariants(t *testing.T) {
	if len(Fig13Variants()) != 3 {
		t.Error("Fig13 should have three variants")
	}
	if len(Fig14Variants()) != 2 {
		t.Error("Fig14 should have two variants")
	}
	// Mutations apply to the right fields.
	p := gpu.DefaultParams()
	Fig13Variants()[2].Mutate(&p)
	if p.GPU.L2TLBEntries != 1024 || p.IOMMU.Walkers != 16 {
		t.Errorf("13c mutation produced %d entries / %d walkers", p.GPU.L2TLBEntries, p.IOMMU.Walkers)
	}
	p = gpu.DefaultParams()
	Fig14Variants()[0].Mutate(&p)
	if p.IOMMU.BufferEntries != 128 {
		t.Errorf("14a mutation produced %d buffer entries", p.IOMMU.BufferEntries)
	}
}

func TestPrinters(t *testing.T) {
	s := microSuite()
	var buf bytes.Buffer

	rows2, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	PrintFig2(&buf, rows2, "")
	rows3, _ := s.Fig3()
	PrintFig3(&buf, rows3, "")
	rows5, _ := s.Fig5()
	PrintFig5(&buf, rows5, "")
	rows6, _ := s.Fig6()
	PrintFig6(&buf, rows6, "")
	rows8, _ := s.Fig8()
	PrintRatioRows(&buf, "Figure 8", "speedup", rows8)
	PrintTable1(&buf)
	PrintTable2(&buf)

	out := buf.String()
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 5", "Figure 6", "Figure 8",
		"Table I", "Table II", "MVT", "Mean(irregular)"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}

func TestTable2Contents(t *testing.T) {
	rows := Table2()
	if len(rows) != 12 {
		t.Fatalf("Table2 rows = %d", len(rows))
	}
	byAbbrev := map[string]Table2Row{}
	for _, r := range rows {
		byAbbrev[r.Abbrev] = r
	}
	xsb := byAbbrev["XSB"]
	if !xsb.Irregular || xsb.FootprintMB < 212 || xsb.FootprintMB > 213 {
		t.Errorf("XSB row = %+v", xsb)
	}
	kmn := byAbbrev["KMN"]
	if kmn.Irregular || kmn.FootprintMB < 4 || kmn.FootprintMB > 5 {
		t.Errorf("KMN row = %+v", kmn)
	}
}

func TestUnknownWorkloadError(t *testing.T) {
	s := microSuite()
	if _, err := s.Run(RunSpec{Workload: "NOPE", Sched: core.KindFCFS}); err == nil {
		t.Error("unknown workload did not error")
	}
}

func TestLargePagesExperiment(t *testing.T) {
	s := microSuite()
	rows, err := s.LargePages()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Walks2M >= r.Walks4K {
			t.Errorf("%s: 2MB pages did not reduce walks (%d vs %d)",
				r.Workload, r.Walks2M, r.Walks4K)
		}
		if r.Speedup2M <= 0 || r.SchedOn2M <= 0 {
			t.Errorf("%s: non-positive speedups %f/%f", r.Workload, r.Speedup2M, r.SchedOn2M)
		}
	}
}

func TestMultiTenant(t *testing.T) {
	s := microSuite()
	rows, err := s.MultiTenant("MVT", "KMN")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 schedulers", len(rows))
	}
	for _, r := range rows {
		if r.VictimSlowdown < 1 {
			// The victim can only be slowed by co-running, not sped up
			// (modulo small cache effects; allow a little slack).
			if r.VictimSlowdown < 0.9 {
				t.Errorf("%s: victim slowdown %f < 0.9", r.Scheduler, r.VictimSlowdown)
			}
		}
		if r.AggressorFinish <= 0 {
			t.Errorf("%s: aggressor finish %f", r.Scheduler, r.AggressorFinish)
		}
	}
	if rows[0].Scheduler != "fcfs" || rows[0].AggressorFinish != 1 {
		t.Errorf("first row should be the FCFS baseline: %+v", rows[0])
	}
}

func TestCSVWriters(t *testing.T) {
	s := microSuite()
	dir := t.TempDir()

	rows2, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	h, out := Fig2CSV(rows2)
	if err := WriteCSV(dir, "fig2", h, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/fig2.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(rows2)+1 {
		t.Errorf("fig2.csv has %d lines, want %d", len(lines), len(rows2)+1)
	}
	if !strings.HasPrefix(lines[0], "workload,random,fcfs,simt_aware") {
		t.Errorf("fig2.csv header = %q", lines[0])
	}

	rows8, _ := s.Fig8()
	h, out = RatioCSV("speedup", rows8)
	if err := WriteCSV(dir, "fig8", h, out); err != nil {
		t.Fatal(err)
	}
	rows3, _ := s.Fig3()
	h, out = Fig3CSV(rows3)
	if err := WriteCSV(dir, "fig3", h, out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir + "/fig8.csv"); err != nil {
		t.Error(err)
	}
}

func TestMultiSeedRatio(t *testing.T) {
	rows, err := MultiSeedRatio(seedSuites(1, 2, 3), (*Suite).Fig11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(IrregularWorkloads) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Errorf("%s: min %.3f mean %.3f max %.3f out of order", r.Workload, r.Min, r.Mean, r.Max)
		}
		if r.Mean <= 0 {
			t.Errorf("%s: non-positive mean", r.Workload)
		}
	}
	var buf bytes.Buffer
	PrintAggRows(&buf, "agg", rows)
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("agg table missing header")
	}
}

// seedSuites returns one micro-shape suite per seed, the way paperfigs
// builds them for -seeds.
func seedSuites(seeds ...uint64) []*Suite {
	suites := make([]*Suite, len(seeds))
	for i, seed := range seeds {
		gen := workload.GenConfig{WavefrontsPerCU: 2, InstrsPerWavefront: 6, Scale: 0.05, Seed: seed}
		suites[i] = NewSuite(gen, seed)
	}
	return suites
}

// TestFiguresShareRuns: figures on one seed's suite read the runs an
// earlier figure made instead of simulating them again, and a batch
// on the worker pool gives the same results as one-at-a-time runs.
func TestFiguresShareRuns(t *testing.T) {
	suites := seedSuites(1, 2)
	if _, err := MultiSeedRatio(suites, (*Suite).Fig8); err != nil {
		t.Fatal(err)
	}
	// A re-simulated run would carry a fresh PerCUStall slice.
	first := map[*Suite]map[runKey]*uint64{}
	for _, s := range suites {
		first[s] = map[runKey]*uint64{}
		for k, r := range s.runs {
			first[s][k] = &r.PerCUStall[0]
		}
	}
	for _, fig := range []func(*Suite) ([]RatioRow, error){(*Suite).Fig9, (*Suite).Fig11} {
		if _, err := MultiSeedRatio(suites, fig); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range suites {
		if len(s.runs) != 24 {
			t.Errorf("seed %d: %d runs cached after Figures 8, 9 and 11, want 24", s.Seed, len(s.runs))
		}
		for k, r := range s.runs {
			if &r.PerCUStall[0] != first[s][k] {
				t.Errorf("seed %d: %v simulated again after Figure 8", s.Seed, k)
			}
		}
	}

	serial := seedSuites(2)[0]
	for k, batched := range suites[1].runs {
		one, err := serial.Run(RunSpec{Workload: k.workload, Sched: k.sched, Variant: k.variant})
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(batched)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(one)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%v: batched result differs from a one-at-a-time run", k)
		}
	}
}
