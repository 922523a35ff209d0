// Package httpobs is the request telemetry gpuwalkd's two HTTP roles,
// the jobd backend and the cluster gateway, share: one middleware that
// assigns each request an ID, hands it and the inbound trace context
// to the handlers, counts the request by route and status, and writes
// the debug access log.
//
// It lives apart from obs because every simulator package imports obs,
// and this package links net/http.
package httpobs

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gpuwalk/internal/obs"
)

// Wrap serves mux behind the request telemetry.
//
// Request ID: a well-formed inbound X-Request-Id is adopted so one ID
// threads a request across hops (client → gateway → backend). When it
// is absent, malformed or oversized, a request carrying a valid
// traceparent gets obs.RequestIDFromTrace, so every hop of a trace
// derives the same ID and their logs join on it; any other request
// gets idPrefix plus a sequence number that counts from 1 per Wrap.
// The ID is echoed in the X-Request-Id response header.
//
// Each request is counted in requests, a counter family labeled
// (route, code), where route is the mux pattern ("GET /v1/jobs/{id}"),
// never the raw path, so label cardinality stays bounded; a request no
// pattern matches counts as "unmatched". The access log is one debug
// record, "http request", on log.
func Wrap(mux *http.ServeMux, requests *obs.Family, log *slog.Logger, idPrefix string) http.Handler {
	var seq atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remote, tpErr := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			if tpErr == nil {
				id = obs.RequestIDFromTrace(remote.Trace)
			} else {
				id = fmt.Sprintf("%s%06d", idPrefix, seq.Add(1))
			}
		}
		w.Header().Set("X-Request-Id", id)
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), infoKey{}, info{id, remote})))
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		requests.With(route, strconv.Itoa(code)).Inc()
		if !log.Enabled(r.Context(), slog.LevelDebug) {
			return // the access log's fields cost allocations; build them only for a record
		}
		logArgs := []any{"request_id", id, "route", route, "path", r.URL.Path}
		if tpErr == nil {
			logArgs = append(logArgs, "trace_id", remote.Trace.String(), "span_id", remote.Span.String())
		}
		log.Debug("http request", append(logArgs, "code", code,
			"duration_ms", float64(time.Since(start).Microseconds())/1000)...)
	})
}

// infoKey keys the per-request info Wrap puts in the handler context.
type infoKey struct{}

type info struct {
	id     string
	remote obs.SpanContext
}

// RequestID returns the request ID Wrap assigned ("" outside Wrap).
func RequestID(ctx context.Context) string {
	in, _ := ctx.Value(infoKey{}).(info)
	return in.id
}

// RemoteSpan returns the span context of the request's valid inbound
// traceparent, or the zero SpanContext when it had none.
func RemoteSpan(ctx context.Context) obs.SpanContext {
	in, _ := ctx.Value(infoKey{}).(info)
	return in.remote
}

// sanitizeRequestID validates an externally supplied request ID:
// non-empty, at most 64 bytes, limited to [A-Za-z0-9._-]. Anything
// else returns "" and the server mints its own — the inbound header is
// a log-correlation convenience, never a trusted value.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// statusRecorder captures the response code for the request counter
// and the access log, passing Flush through so SSE streaming keeps
// working behind it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
