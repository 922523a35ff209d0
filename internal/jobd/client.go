package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"gpuwalk/internal/obs"
)

// Client is a minimal typed client for the jobd HTTP API. It exists so
// the benchmark in bench/ and the tests speak the same wire types the
// server marshals, instead of each re-declaring fragments of the API.
//
// Each call makes exactly one request, so a caller that counts
// rejections sees each one. The zero value is not usable; set BaseURL.
// Methods are safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTP is the underlying client; nil uses a private default with
	// no timeout (callers pass contexts; SSE streams outlive any fixed
	// request timeout).
	HTTP *http.Client
}

var defaultHTTPClient = &http.Client{}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// apiError decodes the server's {"error": ...} body into a readable
// error, mapping the backpressure statuses onto the server's sentinel
// errors so callers can errors.Is against ErrQueueFull / ErrDraining.
func apiError(code int, body []byte) error {
	msg := strings.TrimSpace(string(body))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	switch code {
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w (%s)", ErrQueueFull, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w (%s)", ErrDraining, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s)", ErrNotFound, msg)
	}
	return fmt.Errorf("jobd: server returned %d %s: %s", code, http.StatusText(code), msg)
}

// do performs one HTTP exchange and returns the whole body when the
// status is wantStatus, or the server's error otherwise. hdr entries
// (traceparent) are copied onto the request.
func (c *Client) do(ctx context.Context, method, path string, body []byte, hdr http.Header, wantStatus int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			hreq.Header.Add(k, v)
		}
	}
	resp, err := c.httpc().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != wantStatus {
		return nil, apiError(resp.StatusCode, b)
	}
	return b, nil
}

// Submit POSTs one job. Backpressure rejections surface as errors
// matching ErrQueueFull (HTTP 429) or ErrDraining (HTTP 503).
//
// Submit mints a W3C traceparent header for the request so the server
// — and, through a gateway, the owning backend — continues the
// client's trace; the assigned trace ID comes back in JobView.TraceID.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobView{}, err
	}
	sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	hdr := http.Header{obs.TraceparentHeader: []string{sc.Traceparent()}}
	b, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, hdr, http.StatusAccepted)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		return JobView{}, fmt.Errorf("jobd: decoding submit response: %w", err)
	}
	return v, nil
}

// Job fetches one job's snapshot.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	b, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil, http.StatusOK)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		return JobView{}, fmt.Errorf("jobd: decoding job: %w", err)
	}
	return v, nil
}
