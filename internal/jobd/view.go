package jobd

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// wireJSON returns json.Marshal(raw): raw compacted, with <, >, &,
// U+2028 and U+2029 escaped, which is how encoding/json writes a
// json.RawMessage, or an error when raw is not JSON. When raw is
// already in that form, as results the cache stored from json.Marshal
// are, it returns raw itself rather than a copy, so a shared result
// stays shared. jobd puts every spec and result in this form once, as
// it arrives, so that writing a view copies them (appendView).
func wireJSON(raw json.RawMessage) (json.RawMessage, error) {
	if json.Valid(raw) && compactEscaped(raw) {
		return raw, nil
	}
	return json.Marshal(raw)
}

// wireSpecial marks the bytes compactEscaped must look at: string
// delimiters and escapes, whitespace, the characters HTML-safe output
// escapes, and the lead byte of U+2028 and U+2029.
var wireSpecial = [256]bool{'"': true, '\\': true, ' ': true, '\t': true, '\n': true, '\r': true,
	'<': true, '>': true, '&': true, 0xE2: true}

// compactEscaped reports whether valid JSON b has no whitespace between
// tokens and none of the characters encoding/json escapes in HTML-safe
// output.
func compactEscaped(b []byte) bool {
	inString := false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case !wireSpecial[c]:
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xE2:
			if i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 { // U+2028, U+2029
				return false
			}
		case c == '"':
			inString = !inString
		case c == '\\':
			i++ // only inside a string: skip the escaped byte
		case !inString: // whitespace between tokens
			return false
		}
	}
	return true
}

// viewBufs recycles the buffers views are built in.
var viewBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledView bounds the buffers viewBufs keeps, so one long job list
// does not pin its buffer.
const maxPooledView = 64 << 10

// writeView writes one job view, as json.NewEncoder(w).Encode(v) would,
// with a Content-Length.
func writeView(w http.ResponseWriter, code int, v *JobView) {
	bp := viewBufs.Get().(*[]byte)
	b, err := appendView((*bp)[:0], v)
	sendView(w, code, bp, b, err)
}

// writeJobList writes the GET /v1/jobs body, {"jobs":[views...]}, as
// json.NewEncoder(w).Encode(map[string]any{"jobs": views}) would, with a
// Content-Length.
func writeJobList(w http.ResponseWriter, views []JobView) {
	bp := viewBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"jobs":[`...)
	var err error
	for i := range views {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendView(b, &views[i]); err != nil {
			break
		}
	}
	sendView(w, http.StatusOK, bp, append(b, "]}"...), err)
}

// sendView writes body b, built in the pooled buffer bp, and a newline,
// or a 500 when building it failed, and returns the buffer to the pool.
func sendView(w http.ResponseWriter, code int, bp *[]byte, b []byte, err error) {
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding job view: "+err.Error())
	} else {
		b = append(b, '\n')
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(b)))
		w.WriteHeader(code)
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledView {
		*bp = b
		viewBufs.Put(bp)
	}
}

// appendView appends v's JSON encoding to b: the bytes json.Marshal(v)
// returns, built without reflection. The items' specs and results are
// copied as they are, so they must be in wire form (wireJSON), as the
// server keeps them. It fails where json.Marshal fails, on a time
// outside years 0-9999.
func appendView(b []byte, v *JobView) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = appendString(b, v.ID)
	b = append(b, `,"state":`...)
	b = appendString(b, string(v.State))
	b = append(b, `,"priority":`...)
	b = strconv.AppendInt(b, int64(v.Priority), 10)
	if v.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, v.Error)
	}
	b = append(b, `,"items":`...)
	if v.Items == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range v.Items {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendItem(b, &v.Items[i])
		}
		b = append(b, ']')
	}
	b = append(b, `,"items_done":`...)
	b = strconv.AppendInt(b, int64(v.ItemsDone), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(v.CacheHits), 10)
	if v.Recovered {
		b = append(b, `,"recovered":true`...)
	}
	if v.Progress != nil {
		p, err := json.Marshal(v.Progress)
		if err != nil {
			return b, err
		}
		b = append(b, `,"progress":`...)
		b = append(b, p...)
	}
	if v.Node != "" {
		b = append(b, `,"node":`...)
		b = appendString(b, v.Node)
	}
	if v.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, v.TraceID)
	}
	var err error
	b = append(b, `,"created":`...)
	if b, err = appendTime(b, v.Created); err != nil {
		return b, err
	}
	if v.Started != nil {
		b = append(b, `,"started":`...)
		if b, err = appendTime(b, *v.Started); err != nil {
			return b, err
		}
	}
	if v.Finished != nil {
		b = append(b, `,"finished":`...)
		if b, err = appendTime(b, *v.Finished); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendItem appends it's JSON encoding; its spec and result are in
// wire form.
func appendItem(b []byte, it *Item) []byte {
	b = append(b, `{"spec":`...)
	b = append(b, it.Spec...)
	if len(it.Result) > 0 {
		b = append(b, `,"result":`...)
		b = append(b, it.Result...)
	}
	if it.CacheHit {
		b = append(b, `,"cache_hit":true`...)
	}
	if it.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, it.Error)
	}
	b = append(b, `,"done":`...)
	b = strconv.AppendBool(b, it.Done)
	return append(b, '}')
}

// appendString appends s as encoding/json encodes a string: quoted as
// it is when every byte is printable ASCII that HTML-safe output leaves
// alone, as IDs and states are, and through json.Marshal otherwise.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendTime appends t as time.Time's MarshalJSON encodes it.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	q, err := t.MarshalJSON()
	if err != nil {
		return b, err
	}
	return append(b, q...), nil
}
