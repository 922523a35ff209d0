package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// small is a shape at which every table and figure runs in about a
// second and every figure is still filled in.
var small = []string{"-scale", "0.02", "-wavefronts", "1", "-instrs", "4"}

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (rerun with -update if the change is intended):\n%s", path, got)
	}
}

// runGolden runs paperfigs with args at the small shape and checks its
// stdout against testdata/name.txt.
func runGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, small...), &out); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out.Bytes(), []byte("NaN")) {
		t.Error("output has a NaN")
	}
	checkGolden(t, name+".txt", out.Bytes())
}

// TestGoldenAll: every table, figure, the Section VI discussion and the
// co-run, byte for byte.
func TestGoldenAll(t *testing.T) {
	runGolden(t, "all", "-all")
}

// TestGoldenSeeds: the ratio figures aggregated over two seeds, with
// their bars and the CSV files they write, then a figure that reads
// the first seed alone and says so in its title.
func TestGoldenSeeds(t *testing.T) {
	dir := t.TempDir()
	runGolden(t, "seeds", "-fig", "8,9,10,11,12,6", "-seeds", "2", "-bars", "-csvdir", dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Errorf("-csvdir holds %d files, want fig8.csv to fig12.csv", len(entries))
	}
	for _, f := range []string{"fig8.csv", "fig9.csv", "fig10.csv", "fig11.csv", "fig12.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Error(err)
			continue
		}
		checkGolden(t, filepath.Join("seeds", f), data)
	}
}
