package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gpuwalk/internal/obs"
)

// Client is a minimal typed client for the jobd HTTP API. It exists so
// the benchmark in bench/ and the tests speak the same wire types the
// server marshals, instead of each re-declaring fragments of the API.
//
// The zero value is not usable; set BaseURL. Methods are safe for
// concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTP is the underlying client; nil uses a private default with
	// no timeout (callers pass contexts; SSE streams outlive any fixed
	// request timeout).
	HTTP *http.Client
	// Retry, when set, makes Submit and Job retry transport errors
	// and backpressure rejections (429/503/journal-500) with jittered
	// exponential backoff, honoring the server's Retry-After header.
	// Nil keeps the single-try behavior, so a caller that counts
	// rejections sees each one instead of a retry that masks it.
	Retry *RetryPolicy
	// DisableTrace stops Submit from minting a traceparent header. The
	// server then starts the trace itself (or records none, if its
	// tracing is disabled).
	DisableTrace bool
}

// RetryPolicy configures the client's automatic retries.
//
// Retried statuses are the ones the server marks retryable with a
// Retry-After header: 429 (queue full), 503 (draining), 500 with
// Retry-After (journal hiccup), plus the cluster gateway's 502/504
// (backend down; the ring reroutes). Transport errors retry too — note a
// retried POST may double-submit if the first request was accepted
// and its response lost; jobd jobs are dedup'd by the result cache,
// so a duplicate costs a queue slot, never a wrong result.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values <= 1 mean a single try.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles each
	// retry. Defaults to 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (and any Retry-After the server
	// sends). Defaults to 5s.
	MaxDelay time.Duration
	// jitter returns a fraction in [0,1); tests inject a deterministic
	// one. Nil uses math/rand.
	jitter func() float64
}

// delay computes the wait before retry number attempt (1-based). The
// server's Retry-After (seconds) is honored as given; otherwise the
// exponential schedule applies with full jitter on its upper half, so
// a fleet of clients rejected together does not retry together.
func (p *RetryPolicy) delay(attempt int, retryAfter string) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	if ra, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && ra >= 0 {
		d := time.Duration(ra) * time.Second
		if d > max {
			d = max
		}
		return d
	}
	d := retryDelay(base, max, attempt)
	frac := rand.Float64()
	if p.jitter != nil {
		frac = p.jitter()
	}
	// Full jitter over [d/2, d): deterministic floor, spread ceiling.
	return d/2 + time.Duration(frac*float64(d/2))
}

// retryDelay is the capped exponential backoff schedule: base doubles
// per attempt already used, clamped to max.
func retryDelay(base, max time.Duration, attempts int) time.Duration {
	d := base
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// retryableStatus reports whether an HTTP status invites a retry. A
// 500 counts only when the server stamped it with Retry-After (the
// journal-rejection contract); other 500s are bugs, not backpressure.
// 502 and 504 retry for gateway-aware submission: a cluster gateway
// answers them (with Retry-After) while a backend is down, and the
// next attempt reroutes to wherever the rebuilt ring points.
func retryableStatus(code int, retryAfter string) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	case http.StatusInternalServerError:
		return retryAfter != ""
	}
	return false
}

// sleepCtx waits d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
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

// roundTrip performs one HTTP exchange and reads the whole body.
// status is 0 on transport errors. hdr entries (traceparent) are
// copied onto the request.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, hdr http.Header) (b []byte, status int, retryAfter string, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, 0, "", err
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
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	b, err = io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, 0, "", err
	}
	return b, resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// do is roundTrip plus the client's retry policy: transport errors and
// retryable statuses are re-tried with jittered exponential backoff
// (honoring Retry-After) until the policy's attempts run out or ctx
// expires. Without a policy it is a single try, exactly the old
// behavior.
func (c *Client) do(ctx context.Context, method, path string, body []byte, wantStatus int) ([]byte, error) {
	return c.doHeader(ctx, method, path, body, nil, wantStatus)
}

// doHeader is do with extra request headers, held constant across
// retries — a retried submission is the same logical request, so it
// keeps the same traceparent.
func (c *Client) doHeader(ctx context.Context, method, path string, body []byte, hdr http.Header, wantStatus int) ([]byte, error) {
	maxAttempts := 1
	if c.Retry != nil && c.Retry.MaxAttempts > 1 {
		maxAttempts = c.Retry.MaxAttempts
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		b, status, retryAfter, err := c.roundTrip(ctx, method, path, body, hdr)
		switch {
		case err == nil && status == wantStatus:
			return b, nil
		case err == nil:
			lastErr = apiError(status, b)
			if !retryableStatus(status, retryAfter) {
				return nil, lastErr
			}
		default:
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			retryAfter = ""
		}
		if attempt >= maxAttempts {
			return nil, lastErr
		}
		if serr := sleepCtx(ctx, c.Retry.delay(attempt, retryAfter)); serr != nil {
			return nil, fmt.Errorf("%w (retries aborted: %v)", lastErr, serr)
		}
	}
}

// Submit POSTs one job. Backpressure rejections surface as errors
// matching ErrQueueFull (HTTP 429) or ErrDraining (HTTP 503) — after
// the Retry policy, if any, is exhausted.
//
// Unless DisableTrace is set, Submit mints a W3C traceparent header
// for the request (one per logical submission, stable across retries)
// so the server — and, through a gateway, the owning backend —
// continues the client's trace; the assigned trace ID comes back in
// JobView.TraceID.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobView{}, err
	}
	var hdr http.Header
	if !c.DisableTrace {
		sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
		hdr = http.Header{obs.TraceparentHeader: []string{sc.Traceparent()}}
	}
	b, err := c.doHeader(ctx, http.MethodPost, "/v1/jobs", body, hdr, http.StatusAccepted)
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
	b, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		return JobView{}, fmt.Errorf("jobd: decoding job: %w", err)
	}
	return v, nil
}

// WaitTerminal polls a job until it reaches a terminal state, ctx
// expires, or the server no longer retains it.
func (c *Client) WaitTerminal(ctx context.Context, id string, poll time.Duration) (JobView, error) {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return JobView{}, err
		}
		if v.State.Terminal() {
			return v, nil
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return v, ctx.Err()
		}
	}
}
