package httpx

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// countingServer fails the first n requests with status, then succeeds
// with 200 echoing the request body.
func countingServer(t *testing.T, n int, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := calls.Add(1)
		body, _ := io.ReadAll(r.Body)
		if c <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// sleepSpy records requested sleeps without actually sleeping.
func sleepSpy() (func(time.Duration), *[]time.Duration) {
	var slept []time.Duration
	return func(d time.Duration) { slept = append(slept, d) }, &slept
}

func TestRetriesTransientStatuses(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable} {
		ts, calls := countingServer(t, 2, status, "")
		sleep, slept := sleepSpy()
		c := &Client{MaxAttempts: 4, Sleep: sleep}
		resp, err := c.Get(ts.URL)
		if err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: final = %d, want 200", status, resp.StatusCode)
		}
		if got := calls.Load(); got != 3 {
			t.Fatalf("status %d: calls = %d, want 3", status, got)
		}
		if len(*slept) != 2 {
			t.Fatalf("status %d: slept %d times, want 2", status, len(*slept))
		}
	}
}

func TestRetriesExhaustedReturnsResponse(t *testing.T) {
	ts, calls := countingServer(t, 100, http.StatusServiceUnavailable, "")
	sleep, _ := sleepSpy()
	c := &Client{MaxAttempts: 3, Sleep: sleep}
	resp, err := c.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("final = %d, want the server's 503", resp.StatusCode)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want MaxAttempts=3", got)
	}
}

func TestNoRetryOnOtherStatuses(t *testing.T) {
	ts, calls := countingServer(t, 100, http.StatusBadRequest, "")
	c := &Client{MaxAttempts: 4, Sleep: func(time.Duration) {}}
	resp, err := c.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (400 is not retryable)", got)
	}
}

func TestHonorsRetryAfterSeconds(t *testing.T) {
	ts, _ := countingServer(t, 1, http.StatusTooManyRequests, "7")
	sleep, slept := sleepSpy()
	c := &Client{MaxAttempts: 4, Sleep: sleep}
	resp, err := c.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(*slept) != 1 || (*slept)[0] != 7*time.Second {
		t.Fatalf("slept = %v, want exactly [7s] from Retry-After", *slept)
	}
}

func TestBackoffGrowsAndIsJittered(t *testing.T) {
	c := &Client{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for i, wantMax := range []time.Duration{100, 200, 400, 800, 1000, 1000} {
		wantMax *= time.Millisecond
		d := c.backoff(i, nil)
		if d < wantMax/2 || d > wantMax {
			t.Fatalf("backoff(%d) = %v, want in [%v, %v]", i, d, wantMax/2, wantMax)
		}
	}
}

func TestBodyRewindAcrossRetries(t *testing.T) {
	ts, _ := countingServer(t, 2, http.StatusServiceUnavailable, "")
	sleep, _ := sleepSpy()
	c := &Client{MaxAttempts: 4, Sleep: sleep}
	resp, err := c.Post(ts.URL, "application/octet-stream", []byte("payload-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	echo, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(echo) != "payload-bytes" {
		t.Fatalf("echoed body = %q; retry did not rewind the request body", echo)
	}
}

func TestTransportErrorRetryGating(t *testing.T) {
	// A server that is immediately closed produces connection errors.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()

	sleep, slept := sleepSpy()
	c := &Client{MaxAttempts: 3, Sleep: sleep}
	if _, err := c.Get(url); err == nil {
		t.Fatal("want transport error")
	}
	if len(*slept) != 0 {
		t.Fatalf("slept %v without RetryConnect", *slept)
	}

	c.RetryConnect = true
	if _, err := c.Get(url); err == nil {
		t.Fatal("want transport error")
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2 (MaxAttempts-1) with RetryConnect", len(*slept))
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d, ok := parseRetryAfter("3"); !ok || d != 3*time.Second {
		t.Fatalf("seconds form: %v %v", d, ok)
	}
	if _, ok := parseRetryAfter(""); ok {
		t.Fatal("empty header parsed")
	}
	if _, ok := parseRetryAfter("soon"); ok {
		t.Fatal("garbage header parsed")
	}
	at := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := parseRetryAfter(at); !ok || d <= 0 || d > 2*time.Second {
		t.Fatalf("date form: %v %v", d, ok)
	}
}

func TestDoRequiresRewindableBodyOnConnectRetry(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()
	c := &Client{MaxAttempts: 3, RetryConnect: true, Sleep: func(time.Duration) {}}
	// io.Reader (not bytes.Reader) leaves GetBody nil: one attempt only.
	req, err := http.NewRequest(http.MethodPost, url, io.MultiReader(bytes.NewReader([]byte("x"))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(req); err == nil {
		t.Fatal("want transport error")
	}
}

// TestDoStopsOnEndedContext: a request whose context has already ended
// is never sent, with or without RetryConnect.
func TestDoStopsOnEndedContext(t *testing.T) {
	ts, calls := countingServer(t, 0, http.StatusOK, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rc := range []bool{false, true} {
		c := &Client{RetryConnect: rc}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := c.Do(req); !errors.Is(err, context.Canceled) {
			t.Fatalf("RetryConnect=%v: err = %v, want context.Canceled", rc, err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("RetryConnect=%v: Do took %v on an ended context", rc, d)
		}
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("calls = %d, want 0", got)
	}
}

// TestBackoffEndsWithContext: cancelling the context cuts a backoff
// wait short, both after a retryable status (here a long Retry-After)
// and after a transport error, and no further attempt is made.
func TestBackoffEndsWithContext(t *testing.T) {
	busy, busyCalls := countingServer(t, 100, http.StatusServiceUnavailable, "10")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	for _, tc := range []struct {
		name string
		url  string
	}{{"status", busy.URL}, {"transport", deadURL}} {
		c := &Client{RetryConnect: true, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second}
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, tc.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		timer := time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		_, err = c.Do(req)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: Do took %v, want the backoff cut short by cancel", tc.name, d)
		}
	}
	if got := busyCalls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (no attempt after cancel)", got)
	}
}
