package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"gpuwalk/internal/atomicio"
)

// This file writes the Chrome trace_event JSON format (the "JSON Array
// Format" with an object wrapper), which loads directly in
// chrome://tracing and https://ui.perfetto.dev. Both trace kinds go
// through one encoder, writeChromeDoc: a Tracer's buffer, where one
// simulated GPU cycle is rendered as one microsecond (the format's
// native timestamp unit), and service spans (spanchrome.go), stamped
// in wall-clock microseconds.
//
// The encoder emits metadata first (process and thread names in
// order), then every event in order, building the JSON by hand so the
// byte stream is a pure function of its input — no map iteration, no
// float formatting ambiguity.

// WriteChrome writes the trace as Chrome trace_event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteChrome on a nil Tracer")
	}
	other := append([]Arg{U64("dropped", t.dropped)}, t.metas...)
	return writeChromeDoc(w, other, t.procs, t.events)
}

// writeChromeDoc writes one trace_event document: the otherData object
// ("tool":"gpuwalk", then other in order), a process_name metadata
// event per process (pid = index+1) and a thread_name one per thread
// (tid = index), then the events in order.
func writeChromeDoc(w io.Writer, other []Arg, procs []process, events []Event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"displayTimeUnit":"ms","otherData":{"tool":"gpuwalk"`)
	for i := range other {
		bw.WriteByte(',')
		writeArg(bw, &other[i])
	}
	bw.WriteString("},\n\"traceEvents\":[\n")

	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	for pi := range procs {
		p := &procs[pi]
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pi+1, jsonString(p.name))
		for ti, th := range p.threads {
			sep()
			fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pi+1, ti, jsonString(th))
		}
	}
	for i := range events {
		sep()
		writeEvent(bw, &events[i])
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeEvent encodes one event as a JSON object.
func writeEvent(bw *bufio.Writer, e *Event) {
	bw.WriteString(`{"name":`)
	bw.WriteString(jsonString(e.Name))
	if e.Cat != "" {
		bw.WriteString(`,"cat":`)
		bw.WriteString(jsonString(e.Cat))
	}
	bw.WriteString(`,"ph":"`)
	bw.WriteByte(e.Phase)
	bw.WriteString(`","ts":`)
	bw.WriteString(strconv.FormatUint(e.TS, 10))
	if e.Phase == PhaseComplete {
		bw.WriteString(`,"dur":`)
		bw.WriteString(strconv.FormatUint(e.Dur, 10))
	}
	if e.Phase == PhaseInstant {
		bw.WriteString(`,"s":"t"`)
	}
	fmt.Fprintf(bw, `,"pid":%d,"tid":%d`, e.Track.pid, e.Track.tid)
	if len(e.Args) > 0 || e.Phase == PhaseCounter {
		bw.WriteString(`,"args":{`)
		for i := range e.Args {
			if i > 0 {
				bw.WriteByte(',')
			}
			writeArg(bw, &e.Args[i])
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// writeArg encodes one "key":value member: a non-empty Str as a JSON
// string, otherwise Val as a number.
func writeArg(bw *bufio.Writer, a *Arg) {
	bw.WriteString(jsonString(a.Key))
	bw.WriteByte(':')
	if a.Str != "" {
		bw.WriteString(jsonString(a.Str))
	} else {
		bw.WriteString(strconv.FormatUint(a.Val, 10))
	}
}

// jsonString encodes s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		panic(err)
	}
	return string(b)
}

// WriteChromeFile writes the trace to the named file, atomically: a
// failed write leaves any existing file untouched rather than
// truncated.
func (t *Tracer) WriteChromeFile(path string) error {
	return atomicio.WriteFile(path, t.WriteChrome)
}

// chromeEvent is the decoded shape CheckChrome validates against.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	PID  *int           `json:"pid"`
	TID  *int           `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// CheckChrome validates that data is well-formed Chrome trace_event
// JSON as this package emits it: an object with a traceEvents array
// whose events carry the fields their phase requires, and whose
// process/thread ids are all named by metadata events. It is the
// schema check the trace tests run against emitted files.
func CheckChrome(data []byte) error {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	procNamed := map[int]bool{}
	threadNamed := map[[2]int]bool{}
	var deferred []chromeEvent
	for i, raw := range doc.TraceEvents {
		var e chromeEvent
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("obs: traceEvents[%d]: %w", i, err)
		}
		if e.Name == "" {
			return fmt.Errorf("obs: traceEvents[%d]: missing name", i)
		}
		if e.PID == nil || e.TID == nil {
			return fmt.Errorf("obs: traceEvents[%d] (%s): missing pid/tid", i, e.Name)
		}
		switch e.Ph {
		case "M":
			name, _ := e.Args["name"].(string)
			switch e.Name {
			case "process_name":
				if name == "" {
					return fmt.Errorf("obs: traceEvents[%d]: process_name without args.name", i)
				}
				procNamed[*e.PID] = true
			case "thread_name":
				if name == "" {
					return fmt.Errorf("obs: traceEvents[%d]: thread_name without args.name", i)
				}
				threadNamed[[2]int{*e.PID, *e.TID}] = true
			default:
				return fmt.Errorf("obs: traceEvents[%d]: unknown metadata %q", i, e.Name)
			}
			continue
		case "i":
			if e.S != "t" {
				return fmt.Errorf("obs: traceEvents[%d] (%s): instant without thread scope", i, e.Name)
			}
		case "X":
			if e.Dur == nil {
				return fmt.Errorf("obs: traceEvents[%d] (%s): complete event without dur", i, e.Name)
			}
		case "C":
			if len(e.Args) == 0 {
				return fmt.Errorf("obs: traceEvents[%d] (%s): counter without series", i, e.Name)
			}
			for k, v := range e.Args {
				if _, ok := v.(float64); !ok {
					return fmt.Errorf("obs: traceEvents[%d] (%s): counter series %q is not numeric", i, e.Name, k)
				}
			}
		default:
			return fmt.Errorf("obs: traceEvents[%d] (%s): unsupported phase %q", i, e.Name, e.Ph)
		}
		if e.TS == nil {
			return fmt.Errorf("obs: traceEvents[%d] (%s): missing ts", i, e.Name)
		}
		deferred = append(deferred, e)
	}
	for _, e := range deferred {
		if !procNamed[*e.PID] {
			return fmt.Errorf("obs: event %q references unnamed pid %d", e.Name, *e.PID)
		}
		if !threadNamed[[2]int{*e.PID, *e.TID}] {
			return fmt.Errorf("obs: event %q references unnamed track %d/%d", e.Name, *e.PID, *e.TID)
		}
	}
	return nil
}
