// Package httpx is the shared retrying HTTP client used by every WOLF
// component that talks to a wolfd endpoint: wolfctl subcommands and the
// fleet analyzer both route their calls through it instead of bare
// one-shot net/http requests.
//
// Retry policy:
//
//   - Responses wolfd uses for load shedding and transient unavailability
//     (429, 502, 503) are retried with exponential backoff plus jitter.
//     A Retry-After header (seconds or HTTP date) overrides the computed
//     backoff, so a shedding server paces its own clients.
//   - Transport errors (connection refused, reset) are retried only when
//     the caller opts in with RetryConnect — the request may have been
//     processed before the connection died, so only callers whose
//     requests are idempotent or deduplicated downstream (the fleet
//     protocol, content-addressed uploads) should enable it.
//   - Everything else (including 4xx/5xx outside the set above) is
//     returned to the caller on the first attempt.
//
// The final response is always returned even when retries are
// exhausted, so callers can render the server's error body. A request
// whose context ends is not retried: Do returns the context's error at
// once, cutting short any backoff wait in progress.
package httpx

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Client is a retrying HTTP client. The zero value is usable; Fill in
// fields to tune.
type Client struct {
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// MaxAttempts bounds total tries per request (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); each retry
	// doubles it, capped at MaxDelay (default 5s). The actual sleep is
	// jittered uniformly in [delay/2, delay).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// RetryConnect also retries transport-level failures, not just
	// retryable status codes. Enable only when a duplicated request is
	// harmless (see the package comment).
	RetryConnect bool
	// Sleep is the wait hook (tests); by default the wait is a timer
	// that the request's context can cut short.
	Sleep func(time.Duration)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

// wait sleeps d before a retry and reports whether ctx is still live.
func (c *Client) wait(ctx context.Context, d time.Duration) bool {
	if c.Sleep != nil {
		c.Sleep(d)
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Retryable reports whether a status code is in the transient set wolfd
// emits for shedding and unavailability.
func Retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// backoff computes the jittered sleep before attempt i (0-based retry
// count), honoring a Retry-After header when the server sent one.
func (c *Client) backoff(i int, resp *http.Response) time.Duration {
	if resp != nil {
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return d
		}
	}
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(i)
	if d > max || d <= 0 {
		d = max
	}
	// Full jitter over the top half keeps retries spread without ever
	// collapsing to zero.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// parseRetryAfter accepts the delta-seconds and HTTP-date forms.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// Do executes the request, retrying per the policy above. Requests with
// a body must be rewindable (req.GetBody set — http.NewRequest does this
// automatically for bytes.Reader/bytes.Buffer/strings.Reader bodies).
// Once req.Context() is done, Do makes no further attempt and returns
// the context's error.
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 && req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, fmt.Errorf("httpx: rewind request body: %w", err)
			}
			req.Body = body
		}
		resp, err := c.http().Do(req)
		if err != nil {
			if !c.RetryConnect || attempt+1 >= c.attempts() || ctx.Err() != nil {
				return nil, err
			}
			if req.Body != nil && req.GetBody == nil {
				return nil, err // cannot rewind; don't resend half a body
			}
			if !c.wait(ctx, c.backoff(attempt, nil)) {
				return nil, ctx.Err()
			}
			continue
		}
		if !Retryable(resp.StatusCode) || attempt+1 >= c.attempts() {
			return resp, nil
		}
		wait := c.backoff(attempt, resp)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if !c.wait(ctx, wait) {
			return nil, ctx.Err()
		}
	}
}

// Get issues a retried GET.
func (c *Client) Get(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// Post issues a retried POST with an in-memory (rewindable) body.
func (c *Client) Post(url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.Do(req)
}
