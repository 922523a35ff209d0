package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseDoc = `{"model_version":"v4","submit_p50_ms":2.0,"submit_p99_ms":10.0,"achieved_qps":200,"speedup":200}`

func runDiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestWithinThresholdPasses(t *testing.T) {
	base := writeBench(t, "base.json", baseDoc)
	fresh := writeBench(t, "new.json", `{"model_version":"v4","submit_p50_ms":2.4,"submit_p99_ms":12.0,"achieved_qps":180}`)
	code, out, _ := runDiff(t, "-base", base, "-new", fresh, "-threshold", "0.5")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "ok") || strings.Contains(out, "REGRESSION") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestRegressionFails(t *testing.T) {
	base := writeBench(t, "base.json", baseDoc)
	fresh := writeBench(t, "new.json", `{"model_version":"v4","submit_p50_ms":4.0,"submit_p99_ms":10.0,"achieved_qps":200}`)
	code, out, _ := runDiff(t, "-base", base, "-new", fresh, "-threshold", "0.5")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "submit_p50_ms") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestImprovementPasses(t *testing.T) {
	base := writeBench(t, "base.json", baseDoc)
	fresh := writeBench(t, "new.json", `{"model_version":"v4","submit_p50_ms":1.0,"submit_p99_ms":5.0,"achieved_qps":400}`)
	code, out, _ := runDiff(t, "-base", base, "-new", fresh)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
}

func TestHigherIsBetterInverts(t *testing.T) {
	base := writeBench(t, "base.json", baseDoc)

	// speedup dropped 200 -> 80: a >50% loss on a higher-is-better
	// metric must regress even though the raw delta is negative.
	fresh := writeBench(t, "new.json", `{"model_version":"v4","speedup":80}`)
	code, out, _ := runDiff(t, "-base", base, "-new", fresh, "-metrics", "higher:speedup", "-threshold", "0.5")
	if code != 1 {
		t.Fatalf("throughput drop: exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "speedup") {
		t.Fatalf("report:\n%s", out)
	}

	// speedup rose 200 -> 400: a gain must pass, however large —
	// without the prefix the same file regresses.
	fresh = writeBench(t, "up.json", `{"model_version":"v4","speedup":400}`)
	if code, out, _ := runDiff(t, "-base", base, "-new", fresh, "-metrics", "higher:speedup", "-threshold", "0.5"); code != 0 {
		t.Fatalf("throughput gain: exit = %d, want 0\n%s", code, out)
	}
	if code, _, _ := runDiff(t, "-base", base, "-new", fresh, "-metrics", "speedup", "-threshold", "0.5"); code != 1 {
		t.Fatalf("same delta without higher: prefix should regress, got exit %d", code)
	}
}

// TestDefaultsCompareLoadBaseline: with only -new given, benchdiff reads
// BENCH_load.json from the working directory and compares the submit
// latencies and achieved throughput, the last as higher-is-better.
func TestDefaultsCompareLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_load.json"), []byte(baseDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	fresh := writeBench(t, "new.json", `{"model_version":"v4","submit_p50_ms":2.0,"submit_p99_ms":10.0,"achieved_qps":200}`)
	code, out, errOut := runDiff(t, "-new", fresh)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	for _, m := range []string{"submit_p50_ms", "submit_p99_ms", "achieved_qps"} {
		if !strings.Contains(out, m) {
			t.Errorf("default report lacks %s:\n%s", m, out)
		}
	}
	slower := writeBench(t, "slower.json", `{"model_version":"v4","submit_p50_ms":2.0,"submit_p99_ms":10.0,"achieved_qps":50}`)
	if code, out, _ := runDiff(t, "-new", slower); code != 1 {
		t.Fatalf("throughput drop: exit = %d, want 1\n%s", code, out)
	}
}

func TestModelVersionMismatchNoted(t *testing.T) {
	base := writeBench(t, "base.json", baseDoc)
	fresh := writeBench(t, "new.json", `{"model_version":"v5","submit_p50_ms":2.0,"submit_p99_ms":10.0,"achieved_qps":200}`)
	_, out, _ := runDiff(t, "-base", base, "-new", fresh)
	if !strings.Contains(out, "model_version differs") {
		t.Fatalf("no mismatch note in:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	base := writeBench(t, "base.json", baseDoc)
	for name, args := range map[string][]string{
		"missing -new":   {"-base", base},
		"missing file":   {"-base", base, "-new", filepath.Join(t.TempDir(), "absent.json")},
		"missing metric": {"-base", base, "-new", base, "-metrics", "no_such_metric"},
		"malformed base": {"-base", writeBench(t, "bad.json", "not json"), "-new", base},
	} {
		if code, out, errOut := runDiff(t, args...); code != 2 {
			t.Errorf("%s: exit = %d, want 2\nstdout: %s\nstderr: %s", name, code, out, errOut)
		}
	}
}
