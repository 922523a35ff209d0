package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentTypeProm is the Content-Type an HTTP handler serving WriteText
// output must set: Prometheus text exposition format version 0.0.4.
const ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// WriteText writes every family in the Prometheus text exposition
// format: a # HELP and # TYPE line per family, then one sample line per
// child (histograms expand into cumulative _bucket lines plus _sum and
// _count). Output is deterministic — families sort by name, children by
// label values — and safe to call concurrently with metric mutation:
// each sample is an atomic read, so a scrape sees a value each series
// held at some instant during the scrape.
func (s *FamilySet) WriteText(w io.Writer) error { return s.WriteRollup(w, nil) }

// WriteRollup writes the set's families as WriteText does and rolls
// several nodes' expositions up into the same document, every node
// sample gaining a leading node="<name>" label so one scrape tells the
// nodes apart. docs maps node name (host:port) to that node's parsed
// /metrics.
//
// Each family is declared once. A node family the set also holds goes
// under the set's HELP and TYPE, its node samples right after the
// set's own (unlabeled by node) ones. The other node families follow,
// sorted by name, each under the HELP and TYPE of the first node in
// sorted order with samples for it (nodes of mixed versions may
// disagree); a family no node has samples for is left out. Within a
// family, node samples appear in node order and keep each node's
// sample order, which preserves ascending histogram buckets.
func (s *FamilySet) WriteRollup(w io.Writer, docs map[string]*PromText) error {
	type nodeSample struct {
		node string
		s    *PromSample
	}
	type nodeFamily struct {
		help, typ string
		samples   []nodeSample
	}
	nodes := make([]string, 0, len(docs))
	for n := range docs {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	rolled := make(map[string]*nodeFamily)
	var order []string
	for _, node := range nodes {
		doc := docs[node]
		for i := range doc.Samples {
			name := doc.family(doc.Samples[i].Name)
			f := rolled[name]
			if f == nil {
				f = &nodeFamily{help: doc.Help[name], typ: doc.Types[name]}
				rolled[name] = f
				order = append(order, name)
			}
			f.samples = append(f.samples, nodeSample{node, &doc.Samples[i]})
		}
	}
	sort.Strings(order)

	bw := bufio.NewWriterSize(w, 1<<14)
	var names, values []string
	writeNodeSamples := func(f *nodeFamily) {
		for _, ns := range f.samples {
			names, values = append(names[:0], "node"), append(values[:0], ns.node)
			for _, l := range ns.s.Labels {
				names, values = append(names, l.Name), append(values, l.Value)
			}
			writeSample(bw, ns.s.Name, names, values, "", "", ns.s.Value)
		}
	}
	for _, f := range s.snapshotFamilies() {
		writeComment(bw, "HELP", f.name, escapeHelp(f.help))
		writeComment(bw, "TYPE", f.name, string(f.kind))
		f.writeSamples(bw)
		if nf := rolled[f.name]; nf != nil {
			writeNodeSamples(nf)
			delete(rolled, f.name)
		}
	}
	for _, name := range order {
		f := rolled[name]
		if f == nil {
			continue // written with the set's family of that name
		}
		if f.help != "" {
			writeComment(bw, "HELP", name, f.help)
		}
		writeComment(bw, "TYPE", name, f.typ)
		writeNodeSamples(f)
	}
	return bw.Flush()
}

// writeComment emits one "# HELP name text" or "# TYPE name kind" line.
func writeComment(bw *bufio.Writer, keyword, name, text string) {
	bw.WriteString("# ")
	bw.WriteString(keyword)
	bw.WriteByte(' ')
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(text)
	bw.WriteByte('\n')
}

// writeSamples emits the family's sample lines: one per child, or the
// callback's value for a callback family.
func (f *Family) writeSamples(bw *bufio.Writer) {
	if f.fn != nil {
		writeSample(bw, f.name, f.labels, nil, "", "", f.fn())
		return
	}
	for _, c := range f.snapshotChildren() {
		switch f.kind {
		case KindCounter:
			writeSample(bw, f.name, f.labels, c.labelValues, "", "", float64(c.count.Load()))
		case KindGauge:
			writeSample(bw, f.name, f.labels, c.labelValues, "", "", math.Float64frombits(c.gaugeBits.Load()))
		case KindHistogram:
			var cum uint64
			for i := range c.buckets {
				cum += c.buckets[i].Load()
				le := "+Inf"
				if i < len(f.bounds) {
					le = formatPromValue(f.bounds[i])
				}
				writeSample(bw, f.name+"_bucket", f.labels, c.labelValues, "le", le, float64(cum))
			}
			writeSample(bw, f.name+"_sum", f.labels, c.labelValues, "", "", math.Float64frombits(c.hsum.Load()))
			writeSample(bw, f.name+"_count", f.labels, c.labelValues, "", "", float64(c.hcount.Load()))
		}
	}
}

// writeSample emits one "name{labels} value" line. extraKey/extraVal
// append one synthetic label (the histogram le) after the family's own.
func writeSample(bw *bufio.Writer, name string, labelNames, labelValues []string, extraKey, extraVal string, v float64) {
	bw.WriteString(name)
	if len(labelNames) > 0 || extraKey != "" {
		bw.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(ln)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabelValue(labelValues[i]))
			bw.WriteByte('"')
		}
		if extraKey != "" {
			if len(labelNames) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extraKey)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabelValue(extraVal))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatPromValue(v))
	bw.WriteByte('\n')
}

// formatPromValue renders a sample value: integers without a fraction,
// everything else in shortest round-trip form, infinities as +Inf/-Inf.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
