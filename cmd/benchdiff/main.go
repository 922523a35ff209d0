// Command benchdiff compares a freshly measured benchmark JSON file
// against a committed baseline and fails when a metric regressed past
// a threshold. It understands the flat JSON objects the load harness
// writes (BENCH_load.json): string metadata plus float64 metrics.
//
// Metrics are lower-is-better by default; prefix a name with "higher:"
// for throughput-style metrics where a *drop* is the regression.
//
//	benchdiff -new /tmp/load.json
//
// compares submit_p50_ms, submit_p99_ms and higher:achieved_qps against
// BENCH_load.json in the working directory; -base and -metrics name a
// different baseline or metric list.
//
// Exit status: 0 when every compared metric is within threshold (or
// improved), 1 on a regression, 2 on usage or file errors. Timing on
// shared CI runners is noisy, so CI runs this as a non-blocking step:
// the report is the artifact, the exit code is advisory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		base      = fs.String("base", "BENCH_load.json", "committed baseline JSON file")
		fresh     = fs.String("new", "", "freshly measured JSON file (required)")
		metrics   = fs.String("metrics", "submit_p50_ms,submit_p99_ms,higher:achieved_qps", "comma-separated metrics to compare (lower-is-better unless prefixed with higher:)")
		threshold = fs.Float64("threshold", 0.5, "allowed fractional slowdown before failing (0.5 = +50%)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fresh == "" {
		fmt.Fprintln(stderr, "benchdiff: -new is required")
		fs.Usage()
		return 2
	}
	baseDoc, err := load(*base)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newDoc, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	// A baseline measured under a different simulator model is not
	// comparable run-for-run; say so rather than crying regression.
	if bv, nv := baseDoc.strings["model_version"], newDoc.strings["model_version"]; bv != nv {
		fmt.Fprintf(stdout, "note: model_version differs (base %q vs new %q); timings may not be comparable\n", bv, nv)
	}

	regressions := 0
	for _, name := range splitMetrics(*metrics) {
		// "higher:achieved_qps" inverts the comparison: the metric is
		// higher-is-better, so a drop past the threshold is the
		// regression. The prefix is compare-time only; the JSON key has
		// no prefix.
		key, higher := strings.CutPrefix(name, "higher:")
		bv, bok := baseDoc.numbers[key]
		nv, nok := newDoc.numbers[key]
		switch {
		case !bok || !nok:
			fmt.Fprintf(stderr, "benchdiff: metric %q missing (base present=%v, new present=%v)\n", key, bok, nok)
			return 2
		case bv <= 0:
			fmt.Fprintf(stdout, "%-14s base %.3f: skipped (non-positive baseline)\n", key, bv)
		default:
			delta := (nv - bv) / bv
			adverse := delta
			if higher {
				adverse = -delta
			}
			verdict := "ok"
			if adverse > *threshold {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "%-14s base %8.3f  new %8.3f  %+7.1f%%  %s\n",
				key, bv, nv, delta*100, verdict)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d metric(s) regressed more than %+.0f%%\n", regressions, *threshold*100)
		return 1
	}
	return 0
}

// doc is one parsed benchmark file, split into its float metrics and
// its string metadata.
type doc struct {
	numbers map[string]float64
	strings map[string]string
}

func load(path string) (doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return doc{}, err
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		return doc{}, fmt.Errorf("%s: %w", path, err)
	}
	d := doc{numbers: map[string]float64{}, strings: map[string]string{}}
	for k, v := range raw {
		switch v := v.(type) {
		case float64:
			d.numbers[k] = v
		case string:
			d.strings[k] = v
		}
	}
	return d, nil
}

func splitMetrics(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}
