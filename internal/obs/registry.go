package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"gpuwalk/internal/atomicio"
)

// Registry is a metrics registry sampled into a CSV time series: one
// column per registered closure, one row per sample epoch. Columns are
// fixed at first sample; sampling evaluates every column's closure, so
// columns read live model state (the usual pattern is a closure over a
// component's Stats() snapshot).
//
// Like the Tracer, the Registry is deterministic: columns appear in
// registration order and values are formatted as on /metrics
// (formatPromValue), so two runs of the same seeded workload produce
// byte-identical CSV. Server metrics with labels live in FamilySet
// (prom.go).
type Registry struct {
	names  []string
	fns    []func() float64
	byName map[string]bool
	rows   []sampleRow
	sealed bool
}

type sampleRow struct {
	cycle uint64
	vals  []float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// Func registers a callback-sampled series. It panics on a duplicate
// name or registration after the first sample (columns are fixed once
// sampling starts, so every row has the same shape).
func (r *Registry) Func(name string, fn func() float64) {
	if r == nil {
		return
	}
	if r.sealed {
		panic(fmt.Sprintf("obs: metric %q registered after sampling started", name))
	}
	if r.byName[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.byName[name] = true
	r.names = append(r.names, name)
	r.fns = append(r.fns, fn)
}

// Sample evaluates every column at the given cycle and appends a row.
// Sampling twice at the same cycle overwrites the earlier row (at most
// one row per cycle), which lets an end-of-run sample coexist with a
// periodic sampler that happened to fire on the final cycle.
func (r *Registry) Sample(cycle uint64) {
	if r == nil {
		return
	}
	r.sealed = true
	vals := make([]float64, len(r.fns))
	for i, fn := range r.fns {
		vals[i] = fn()
	}
	if n := len(r.rows); n > 0 && r.rows[n-1].cycle == cycle {
		r.rows[n-1].vals = vals
		return
	}
	r.rows = append(r.rows, sampleRow{cycle: cycle, vals: vals})
}

// Rows returns the number of sampled rows.
func (r *Registry) Rows() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// WriteCSV writes the sampled time series: a "cycle,<name>,..." header
// followed by one row per sample.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: WriteCSV on a nil Registry")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("cycle")
	for _, n := range r.names {
		bw.WriteByte(',')
		bw.WriteString(csvField(n))
	}
	bw.WriteByte('\n')
	for i := range r.rows {
		row := &r.rows[i]
		bw.WriteString(strconv.FormatUint(row.cycle, 10))
		for _, v := range row.vals {
			bw.WriteByte(',')
			bw.WriteString(formatPromValue(v))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteCSVFile writes the time series to the named file, atomically: a
// failed write leaves any existing file untouched rather than
// truncated.
func (r *Registry) WriteCSVFile(path string) error {
	return atomicio.WriteFile(path, r.WriteCSV)
}

// csvField quotes a header field if it contains CSV metacharacters
// (metric names normally never do).
func csvField(s string) string {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\n', '\r':
			return strconv.Quote(s)
		}
	}
	return s
}
