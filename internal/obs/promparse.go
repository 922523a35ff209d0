package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one parsed exposition sample.
type PromSample struct {
	// Name is the sample's metric name (including _bucket/_sum/_count
	// suffixes for histogram series).
	Name string
	// Labels holds the sample's label pairs sorted by name.
	Labels []PromLabel
	Value  float64
}

// PromLabel is one name="value" pair on a sample.
type PromLabel struct{ Name, Value string }

// Key renders the sample's identity — name plus sorted labels — in
// canonical form, for map lookups in tests.
func (s PromSample) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		parts[i] = l.Name + "=" + strconv.Quote(l.Value)
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

// PromText is a parsed exposition document.
type PromText struct {
	// Types maps family name to its # TYPE (counter/gauge/histogram).
	Types map[string]string
	// Help maps family name to its # HELP text.
	Help    map[string]string
	Samples []PromSample
}

// Sample returns the value of the sample with the given canonical key
// (see PromSample.Key; a bare name for label-less samples).
func (t *PromText) Sample(key string) (float64, bool) {
	for _, s := range t.Samples {
		if s.Key() == key {
			return s.Value, true
		}
	}
	return 0, false
}

// ParsePromText parses the Prometheus text exposition format (the
// subset WriteText emits: HELP/TYPE comments and sample lines without
// timestamps). It is the reading half of the round-trip contract on
// the /metrics endpoint — strict enough to reject malformed samples
// and, as the format does, a second HELP or TYPE line for a family;
// small enough to not be a scrape client.
func ParsePromText(r io.Reader) (*PromText, error) {
	out := &PromText{Types: make(map[string]string), Help: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, out); err != nil {
				return nil, fmt.Errorf("obs: prom line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: %w", lineNo, err)
		}
		out.Samples = append(out.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Every sample must belong to a declared family.
	for _, s := range out.Samples {
		if _, ok := out.Types[out.family(s.Name)]; !ok {
			return nil, fmt.Errorf("obs: sample %q has no # TYPE declaration", s.Name)
		}
	}
	return out, nil
}

// family maps a sample name to its family name: histogram series
// (_bucket/_sum/_count) belong to their declared base name.
func (t *PromText) family(sample string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if trimmed := strings.TrimSuffix(sample, suf); trimmed != sample && t.Types[trimmed] == "histogram" {
			return trimmed
		}
	}
	return sample
}

func parseComment(line string, out *PromText) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment; the format allows it
	}
	name := fields[2]
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q in %s", name, fields[1])
	}
	rest := ""
	if len(fields) == 4 {
		rest = fields[3]
	}
	if fields[1] == "HELP" {
		if _, ok := out.Help[name]; ok {
			return fmt.Errorf("second HELP line for %q", name)
		}
		out.Help[name] = rest
		return nil
	}
	switch rest {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		return fmt.Errorf("unknown TYPE %q for %q", rest, name)
	}
	if _, ok := out.Types[name]; ok {
		return fmt.Errorf("second TYPE line for %q", name)
	}
	out.Types[name] = rest
	return nil
}

func parseSampleLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if rest[i] == '{' {
		end := closingBrace(rest, i+1)
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[i+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		rest = strings.TrimSpace(rest[i+1:])
	}
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("want exactly one value in %q", line)
	}
	v, err := parsePromValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

// closingBrace returns the index of the '}' closing the label set
// that starts after from, or -1. Braces inside quoted label values
// (a route pattern like "/v1/jobs/{id}") do not count, and escaped
// quotes do not end a quoted value.
func closingBrace(s string, from int) int {
	inQuote := false
	for i := from; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

func parseLabels(body string) ([]PromLabel, error) {
	var labels []PromLabel
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed label in %q", body)
		}
		name := body[:eq]
		if !validLabelName(name) && name != "le" {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", name)
		}
		val, n, err := unescapeLabelValue(body[1:])
		if err != nil {
			return nil, err
		}
		labels = append(labels, PromLabel{Name: name, Value: val})
		body = body[1+n:]
		body = strings.TrimPrefix(body, ",")
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
	return labels, nil
}

// unescapeLabelValue consumes an escaped label value up to (and
// including) its closing quote, returning the value and bytes consumed.
func unescapeLabelValue(s string) (string, int, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			i++
			if i >= len(s) {
				return "", 0, fmt.Errorf("dangling escape in label value")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
