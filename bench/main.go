// Command bench is gpuwalk's performance ledger: one benchmark that
// measures the simulator and the gpuwalkd service end to end and, with
// -trace 1, layer by layer. It drives four workloads from one process
// (two in-process simulator sweeps and open-loop traffic to real
// gpuwalkd subprocesses built from ./cmd/gpuwalkd), prints every metric
// by name and unit, and exits non-zero when an output is wrong.
//
//	cd bench && go run . [-workload all] [-seed 1] [-seconds 20] [-trace 0|1] [-quick] [-out file]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// buildDir, under the repository root, holds the daemon binary and the
// daemons' temporary state.
const buildDir = ".bench_build"

var workloads = []string{"sim-irregular", "sim-regular", "svc-hot", "svc-cold"}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	quick    bool
	out      string
	root     string
}

// duration is the time budget for a run's measured phase.
func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// report is one workload's outcome.
type report struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Meta      map[string]any         `json:"meta"`
	Metrics   map[string]metricValue `json:"metrics"`

	e2e, layer metricSet
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(workload string) *report {
	return &report{Workload: workload, Meta: map[string]any{}, e2e: metricSet{}, layer: metricSet{}}
}

// attempt books n operations, failed of which failed, with their errors.
func (r *report) attempt(n, failed int, errs ...string) {
	r.Attempted += n
	r.Failed += failed
	r.Errors = append(r.Errors, errs...)
}

// fail books a failed check that is not one operation's outcome.
func (r *report) fail(msg string) {
	r.Failed++
	r.Errors = append(r.Errors, msg)
}

// finish fills the exported fields from the measured values.
func (r *report) finish(o options) {
	r.layer["failed_frac"] = ratio(float64(r.Failed), float64(r.Attempted))
	r.Meta["seed"] = o.seed
	r.Meta["seconds"] = o.seconds
	r.Meta["traced"] = o.traced
	r.Metrics = map[string]metricValue{}
	vals := r.e2e
	if o.traced {
		vals = r.layer
	}
	for _, d := range selectDefs(o.traced) {
		v := vals[d.name] // a layer the workload does not exercise reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(fmt.Sprintf("metric %s is not finite", d.name))
			v = 0
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output injected, for the smoke
// test. It returns 0 when every output was correct, 1 when a
// correctness check failed (after printing the result), and 2 when the
// benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace string
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all or one of sim-irregular, sim-regular, svc-hot, svc-cold")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per workload")
	fs.StringVar(&trace, "trace", "0", "1 reports the per-layer breakdown instead of the end-to-end metrics")
	fs.BoolVar(&o.quick, "quick", false, "shrink every workload's inputs, for smoke tests")
	fs.StringVar(&o.out, "out", "", "also write the full result, with metadata, as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if o.traced, err = strconv.ParseBool(trace); err != nil || fs.NArg() > 0 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want -trace 0|1, -seconds > 0 and no positional arguments")
		return 2
	}
	selected := workloads
	if o.workload != "all" {
		if !contains(workloads, o.workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []string{o.workload}
	}
	if o.root, err = repoRoot(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(o.root, buildDir), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(2)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reps []*report
	for _, wl := range selected {
		wo := o
		wo.workload = wl
		rep := newReport(wl)
		if err := runWorkload(ctx, wo, rep); err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "bench: interrupted")
				return 2
			}
			rep.fail(err.Error())
		}
		rep.finish(wo)
		printReport(stdout, rep, o.traced)
		reps = append(reps, rep)
	}
	for _, r := range reps {
		for _, e := range r.Errors {
			fmt.Fprintf(stderr, "bench: %s: %s\n", r.Workload, e)
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(reps, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: writing result:", err)
			return 2
		}
	}
	line, ok := summary(reps)
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, o options, rep *report) error {
	var err error
	if o.workload == "sim-irregular" || o.workload == "sim-regular" {
		err = runSimWorkload(ctx, o, rep)
	} else {
		err = runSvcWorkload(ctx, o, rep)
	}
	if err != nil || !o.traced {
		return err
	}
	benchtime := "200ms"
	if o.quick {
		benchtime = "10ms"
	}
	return microMetrics(rep.layer, benchtime)
}

// summary renders the final result line. With several workloads each
// metric name is prefixed by its workload.
func summary(reps []*report) ([]byte, bool) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range reps {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, v := range r.Metrics {
			if len(reps) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = v
		}
	}
	b, _ := json.Marshal(out)
	return b, out.Correct
}

// printReport writes a workload's metrics as an aligned table.
func printReport(w io.Writer, r *report, traced bool) {
	fmt.Fprintf(w, "== %s (correct=%v, %d attempted, %d failed)\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	keys := make([]string, 0, len(r.Meta))
	for k := range r.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %-28s %v\n", k, r.Meta[k])
	}
	for _, d := range selectDefs(traced) {
		v := r.Metrics[d.name]
		fmt.Fprintf(w, "   %-28s %14.6g %s\n", d.name, v.Value, v.Unit)
	}
}

// repoRoot finds the gpuwalk checkout the benchmark builds from: the
// nearest directory at or above the working directory that holds the
// gpuwalkd sources.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "gpuwalkd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no gpuwalk checkout (cmd/gpuwalkd) at or above the working directory")
		}
		dir = parent
	}
}
