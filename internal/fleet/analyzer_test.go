package fleet

// Analyzer-side unit tests against a scripted fake coordinator: the
// happy path delivers a report plus corpus summaries, and a renew 409
// (lease revoked mid-analysis) abandons the run without a completion —
// the invariant that keeps a reassigned job from being terminal-failed
// by its previous owner.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/replay"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// fig4B64 records a Figure4 detection trace and returns its base64
// WTRC encoding plus content hash.
func fig4B64(t *testing.T) (string, string) {
	t.Helper()
	w, ok := workloads.ByName("Figure4")
	if !ok {
		t.Fatal("Figure4 not registered")
	}
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		t.Fatal("no terminating seed")
	}
	hash, data, err := store.HashTrace(core.Record(w.New, seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(data), hash
}

// fakeCoordinator scripts the fleet protocol: it grants one job and
// records what the analyzer sends back.
type fakeCoordinator struct {
	ts *httptest.Server

	leaseTTL    time.Duration
	renewStatus int // status for /v1/work/renew (200 or 409)
	work        WorkView

	granted   atomic.Bool
	completes chan CompleteRequest
	renewed   atomic.Int64
}

func newFakeCoordinator(t *testing.T, work WorkView, leaseTTL time.Duration, renewStatus int) *fakeCoordinator {
	t.Helper()
	f := &fakeCoordinator{
		leaseTTL: leaseTTL, renewStatus: renewStatus, work: work,
		completes: make(chan CompleteRequest, 4),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(RegisterView{
			ID: "n-0001", Name: "fake",
			HeartbeatMillis:        ToMillis(50 * time.Millisecond),
			HeartbeatTimeoutMillis: ToMillis(time.Second),
			LeaseTTLMillis:         ToMillis(leaseTTL),
		})
	})
	mux.HandleFunc("POST /v1/nodes/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/work/pull", func(w http.ResponseWriter, r *http.Request) {
		if f.granted.Swap(true) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		work := f.work
		work.LeaseTTLMillis = ToMillis(f.leaseTTL)
		work.Attempts = 1
		json.NewEncoder(w).Encode(work)
	})
	mux.HandleFunc("POST /v1/work/renew", func(w http.ResponseWriter, r *http.Request) {
		f.renewed.Add(1)
		if f.renewStatus != http.StatusOK {
			w.WriteHeader(f.renewStatus)
			return
		}
		json.NewEncoder(w).Encode(RenewView{Job: f.work.Job, LeaseTTLMillis: ToMillis(f.leaseTTL)})
	})
	mux.HandleFunc("POST /v1/work/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.completes <- req
		json.NewEncoder(w).Encode(CompleteView{Job: req.Job, Result: "accepted"})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// runAnalyzer drives one analyzer against the fake until cleanup.
func runAnalyzer(t *testing.T, cfg AnalyzerConfig) *Analyzer {
	t.Helper()
	a := NewAnalyzer(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return a
}

// TestAnalyzerDeliversResult is the analyzer happy path: pull a
// shipped trace, analyze it, and deliver a report with corpus
// summaries for the known Figure 4 deadlock.
func TestAnalyzerDeliversResult(t *testing.T) {
	b64, hash := fig4B64(t)
	fc := newFakeCoordinator(t, WorkView{
		Job: "j-000001", Source: "upload", TraceB64: b64, TraceHash: hash,
	}, time.Second, http.StatusOK)
	runAnalyzer(t, AnalyzerConfig{
		Coordinator: fc.ts.URL, Name: "t", Poll: 10 * time.Millisecond,
		JobTimeout: 15 * time.Second,
	})

	select {
	case req := <-fc.completes:
		if !req.OK || req.Job != "j-000001" || req.Node != "n-0001" {
			t.Fatalf("completion = %+v, want ok from n-0001 for j-000001", req)
		}
		if len(req.Summaries) == 0 {
			t.Fatal("completion carries no defect summaries for Figure 4")
		}
		if req.TraceHash != hash {
			t.Fatalf("completion hash = %s, want %s", req.TraceHash, hash)
		}
		if len(req.Report) == 0 {
			t.Fatal("completion carries no report")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no completion delivered")
	}
}

// TestAnalyzerAbandonsOnLeaseLost pins the reassignment invariant: a
// renew 409 cancels the running analysis and the analyzer sends NO
// completion — the job now belongs to another node.
func TestAnalyzerAbandonsOnLeaseLost(t *testing.T) {
	b64, hash := fig4B64(t)
	// Short lease so renewals start almost immediately; every renewal
	// answers 409.
	fc := newFakeCoordinator(t, WorkView{
		Job: "j-000001", Source: "upload", TraceB64: b64, TraceHash: hash,
	}, 30*time.Millisecond, http.StatusConflict)

	analyzing := make(chan struct{}, 1)
	runAnalyzer(t, AnalyzerConfig{
		Coordinator: fc.ts.URL, Name: "t", Poll: 10 * time.Millisecond,
		JobTimeout: 15 * time.Second,
		// Block until the renewal goroutine cancels the run, proving the
		// cancellation (not completion of the work) ends the analysis.
		Analyze: func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
			analyzing <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})

	select {
	case <-analyzing:
	case <-time.After(15 * time.Second):
		t.Fatal("analysis never started")
	}
	// The renewal must fire, flip leaseLost, and the run must end with
	// no completion call.
	deadline := time.Now().Add(10 * time.Second)
	for fc.renewed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fc.renewed.Load() == 0 {
		t.Fatal("lease was never renewed")
	}
	select {
	case req := <-fc.completes:
		t.Fatalf("abandoned run still sent a completion: %+v", req)
	case <-time.After(300 * time.Millisecond):
	}
}

// idleCoordinator answers registration with the given pull hold and
// hands out no work: each pull runs pull (which may block) and gets a
// 204. It counts the pulls it sees.
func idleCoordinator(t *testing.T, hold time.Duration, pull func(r *http.Request)) (string, *atomic.Int64) {
	t.Helper()
	var pulls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(RegisterView{
			ID: "n-0001", Name: "fake",
			HeartbeatMillis:        ToMillis(time.Second),
			HeartbeatTimeoutMillis: ToMillis(time.Minute),
			LeaseTTLMillis:         ToMillis(time.Minute),
			PullHoldMillis:         ToMillis(hold),
		})
	})
	mux.HandleFunc("POST /v1/nodes/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/work/pull", func(w http.ResponseWriter, r *http.Request) {
		pulls.Add(1)
		// Consuming the body lets the server notice a client hang-up.
		io.Copy(io.Discard, r.Body)
		pull(r)
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, &pulls
}

// TestAnalyzerCancelWhileParked: cancelling Run while its pull waits at
// the coordinator ends the pull and returns within 100ms.
func TestAnalyzerCancelWhileParked(t *testing.T) {
	parked := make(chan struct{}, 1)
	url, _ := idleCoordinator(t, 30*time.Second, func(r *http.Request) {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	})
	a := NewAnalyzer(AnalyzerConfig{Coordinator: url, Name: "t"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- a.Run(ctx) }()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("pull never reached the coordinator")
	}
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("Run returned %v after cancel, want within 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestAnalyzerIdlePullPacing: after a 204 the analyzer pulls again at
// once only when the coordinator advertises a pull hold; against one
// that does not (an older coordinator answering idle pulls at once) it
// sleeps Poll between pulls rather than hot-looping.
func TestAnalyzerIdlePullPacing(t *testing.T) {
	const poll, window = 200 * time.Millisecond, 400 * time.Millisecond
	for _, tc := range []struct {
		name      string
		hold      time.Duration
		min, max  int64
		pullDelay time.Duration
	}{
		{"no-hold", 0, 1, 4, 0},
		{"hold", time.Second, 10, 1 << 30, 5 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, pulls := idleCoordinator(t, tc.hold, func(*http.Request) { time.Sleep(tc.pullDelay) })
			runAnalyzer(t, AnalyzerConfig{Coordinator: url, Name: "t", Poll: poll})
			time.Sleep(window)
			if n := pulls.Load(); n < tc.min || n > tc.max {
				t.Fatalf("%d pulls in %v with Poll %v, want %d..%d", n, window, poll, tc.min, tc.max)
			}
		})
	}
}

// queueCoordinator grants the given jobs one per pull, then answers
// 204, and records every completion and pull.
type queueCoordinator struct {
	url       string
	completes chan CompleteRequest
	pulls     atomic.Int64
}

func newQueueCoordinator(t *testing.T, works ...WorkView) *queueCoordinator {
	t.Helper()
	q := &queueCoordinator{completes: make(chan CompleteRequest, len(works))}
	grants := make(chan WorkView, len(works))
	for _, w := range works {
		w.Attempts, w.LeaseTTLMillis = 1, ToMillis(time.Minute)
		grants <- w
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(RegisterView{ID: "n-0001", Name: "fake",
			HeartbeatMillis: ToMillis(time.Second), LeaseTTLMillis: ToMillis(time.Minute)})
	})
	mux.HandleFunc("POST /v1/nodes/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/work/pull", func(w http.ResponseWriter, r *http.Request) {
		q.pulls.Add(1)
		select {
		case work := <-grants:
			json.NewEncoder(w).Encode(work)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})
	mux.HandleFunc("POST /v1/work/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		json.NewDecoder(r.Body).Decode(&req)
		q.completes <- req
		json.NewEncoder(w).Encode(CompleteView{Job: req.Job, Result: "accepted"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	q.url = ts.URL
	return q
}

// next waits for the next completion.
func (q *queueCoordinator) next(t *testing.T) CompleteRequest {
	t.Helper()
	select {
	case req := <-q.completes:
		return req
	case <-time.After(15 * time.Second):
		t.Fatal("no completion delivered")
		return CompleteRequest{}
	}
}

// TestAnalyzerSurvivesPanic: an analysis that panics is delivered as a
// "panic" failure naming the panic, and the node goes on to complete
// the next job.
func TestAnalyzerSurvivesPanic(t *testing.T) {
	b64, hash := fig4B64(t)
	q := newQueueCoordinator(t,
		WorkView{Job: "j-000001", Source: "upload", TraceB64: b64, TraceHash: hash},
		WorkView{Job: "j-000002", Source: "upload", TraceB64: b64, TraceHash: hash})
	var calls atomic.Int64
	runAnalyzer(t, AnalyzerConfig{
		Coordinator: q.url, Name: "t", Poll: 10 * time.Millisecond, JobTimeout: 15 * time.Second,
		Analyze: func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
			if calls.Add(1) == 1 {
				panic("synthetic analyzer bug")
			}
			return core.AnalyzeTraceCtx(ctx, tr, cfg)
		},
	})
	if req := q.next(t); req.OK || req.Job != "j-000001" || req.Reason != ReasonPanic ||
		!strings.Contains(req.Error, "synthetic analyzer bug") {
		t.Fatalf("first completion = %+v, want a panic failure for j-000001", req)
	}
	if req := q.next(t); !req.OK || req.Job != "j-000002" || len(req.Report) == 0 {
		t.Fatalf("second completion = %+v, want a report for j-000002", req)
	}
}

// TestAnalyzerAbandonsHungAnalysis: an analysis that ignores its
// cancelled context is abandoned after JobTimeout+WatchdogGrace, a
// "watchdog" failure is delivered, and the node pulls again.
func TestAnalyzerAbandonsHungAnalysis(t *testing.T) {
	b64, hash := fig4B64(t)
	q := newQueueCoordinator(t, WorkView{Job: "j-000001", Source: "upload", TraceB64: b64, TraceHash: hash})
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) }) // let the abandoned goroutine exit
	const timeout, grace = 50 * time.Millisecond, 100 * time.Millisecond
	start := time.Now()
	runAnalyzer(t, AnalyzerConfig{
		Coordinator: q.url, Name: "t", Poll: 10 * time.Millisecond,
		JobTimeout: timeout, WatchdogGrace: grace,
		Analyze: func(context.Context, *trace.Trace, core.Config) (*core.Report, error) {
			<-hung // ignores its context
			return nil, errors.New("released")
		},
	})
	req := q.next(t)
	if d := time.Since(start); d < timeout+grace {
		t.Fatalf("watchdog fired after %v, before timeout+grace %v", d, timeout+grace)
	}
	if req.OK || req.Reason != ReasonWatchdog || !strings.Contains(req.Error, "watchdog") {
		t.Fatalf("completion = %+v, want a watchdog failure", req)
	}
	pulls := q.pulls.Load()
	deadline := time.Now().Add(5 * time.Second)
	for q.pulls.Load() == pulls {
		if time.Now().After(deadline) {
			t.Fatal("node did not pull again after the watchdog failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// inProcessCoordinator is the protocol without HTTP, as wolfd's single
// role speaks it: it grants one job and hands each completion over as
// the Analyzer built it.
type inProcessCoordinator struct {
	work      WorkView
	granted   atomic.Bool
	completes chan CompleteRequest
}

func (c *inProcessCoordinator) Register(context.Context, RegisterRequest) (RegisterView, int, error) {
	return RegisterView{ID: "n-0001", Name: "local", HeartbeatMillis: ToMillis(time.Second),
		LeaseTTLMillis: ToMillis(time.Minute)}, http.StatusOK, nil
}

func (c *inProcessCoordinator) Heartbeat(context.Context, string) (int, error) {
	return http.StatusOK, nil
}

func (c *inProcessCoordinator) Pull(ctx context.Context, _ PullRequest) (WorkView, int, error) {
	if c.granted.Swap(true) {
		select { // idle: wait as a holding coordinator would
		case <-ctx.Done():
		case <-time.After(10 * time.Millisecond):
		}
		return WorkView{}, http.StatusNoContent, nil
	}
	w := c.work
	w.Attempts, w.LeaseTTLMillis = 1, ToMillis(time.Minute)
	return w, http.StatusOK, nil
}

func (c *inProcessCoordinator) Renew(_ context.Context, req RenewRequest) (RenewView, int, error) {
	return RenewView{Job: req.Job, LeaseTTLMillis: ToMillis(time.Minute)}, http.StatusOK, nil
}

func (c *inProcessCoordinator) Complete(_ context.Context, req CompleteRequest) (CompleteView, int, error) {
	c.completes <- req
	return CompleteView{Job: req.Job, Result: "accepted"}, http.StatusOK, nil
}

// awaitCompletion waits for the next completion on ch.
func awaitCompletion(t *testing.T, ch <-chan CompleteRequest) CompleteRequest {
	t.Helper()
	select {
	case req := <-ch:
		return req
	case <-time.After(15 * time.Second):
		t.Fatal("no completion delivered")
		return CompleteRequest{}
	}
}

// coreTally counts what rep adds to the verdict metrics straight from
// the in-memory report, as a reference for the tally a completion reads
// off its wire form.
func coreTally(rep *core.Report) Tally {
	t := Tally{Cycles: len(rep.Cycles), Detect: rep.Timings.CycleDetect, Prune: rep.Timings.Prune, Generate: rep.Timings.Generate}
	t.Pruned, t.Infeasible, t.Confirmed, t.Unknown = rep.CountDefects()
	div := replay.Divergence{}
	for _, cr := range rep.Cycles {
		div.Merge(cr.Divergence)
		if cr.ReplayMethod != replay.MethodNone {
			if t.Confirmations == nil {
				t.Confirmations = map[string]int{}
			}
			t.Confirmations[string(cr.ReplayMethod)]++
		}
		t.Faults += cr.Faults.Total()
	}
	t.Divergence = div.ByName()
	return t
}

// TestCompleteRequestSameInProcessAndOverHTTP: one analysis completed
// through an in-process Coordinator and through the HTTP one delivers a
// byte-identical report, equal summaries and an equal tally. A workload
// job's recording reaches an in-process coordinator through the grant's
// Recorded hook and a remote one as TraceB64.
func TestCompleteRequestSameInProcessAndOverHTTP(t *testing.T) {
	b64, hash := fig4B64(t)
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.AnalyzeTraceCtx(context.Background(), tr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One report for every run, with what the tally counts beyond the
	// offline verdicts: phase timings, a replay confirmation, divergence
	// and faults.
	rep.Timings = core.Timings{CycleDetect: 1500 * time.Microsecond, Prune: 20 * time.Microsecond, Generate: 3 * time.Millisecond}
	for _, cr := range rep.Cycles {
		if cr.Class == core.Unknown {
			cr.Class, cr.ReplayMethod = core.Confirmed, replay.MethodFallback
			cr.Divergence = replay.Divergence{replay.DivergenceStarved: 2}
			cr.Faults = sim.FaultStats{Stalls: 3}
		}
	}
	fixed := func(context.Context, *trace.Trace, core.Config) (*core.Report, error) { return rep, nil }
	want := coreTally(rep)
	if want.Cycles == 0 || len(want.Confirmations) == 0 || len(want.Divergence) == 0 || want.Faults == 0 {
		t.Fatalf("tally %+v leaves a family uncounted", want)
	}

	for _, tc := range []struct {
		name   string
		work   WorkView
		remote bool // the work ships a trace only to a remote node
	}{
		{"upload", WorkView{Job: "j-000001", Source: "upload", TraceB64: b64, TraceHash: hash}, false},
		{"workload", WorkView{Job: "j-000001", Source: "workload:Figure4", Workload: "Figure4", SeedTries: 300}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hooked atomic.Bool
			local := &inProcessCoordinator{work: tc.work, completes: make(chan CompleteRequest, 1)}
			local.work.Recorded = func(*trace.Trace) { hooked.Store(true) }
			a := NewAnalyzerFor(local, AnalyzerConfig{Name: "local", JobTimeout: 15 * time.Second, Analyze: fixed})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); a.Run(ctx) }()
			t.Cleanup(func() { cancel(); <-done })
			in := awaitCompletion(t, local.completes)

			fc := newFakeCoordinator(t, tc.work, time.Minute, http.StatusOK)
			runAnalyzer(t, AnalyzerConfig{Coordinator: fc.ts.URL, Name: "t", Poll: 10 * time.Millisecond,
				JobTimeout: 15 * time.Second, Analyze: fixed})
			over := awaitCompletion(t, fc.completes)

			if !in.OK || !over.OK {
				t.Fatalf("completions ok=%v/%v: %s / %s", in.OK, over.OK, in.Error, over.Error)
			}
			if !bytes.Equal(in.Report, over.Report) {
				t.Errorf("reports differ:\nin process %.200s\nover HTTP  %.200s", in.Report, over.Report)
			}
			if !reflect.DeepEqual(in.Summaries, over.Summaries) || len(in.Summaries) == 0 {
				t.Errorf("summaries differ or are empty:\nin process %+v\nover HTTP  %+v", in.Summaries, over.Summaries)
			}
			if !reflect.DeepEqual(in.Tally, want) || !reflect.DeepEqual(over.Tally, want) {
				t.Errorf("tallies differ:\nwant       %+v\nin process %+v\nover HTTP  %+v", want, in.Tally, over.Tally)
			}
			if in.TraceB64 != "" {
				t.Error("an in-process completion shipped its trace")
			}
			if !tc.remote {
				if in.TraceHash != hash || over.TraceHash != hash {
					t.Errorf("trace hashes %q / %q, want the grant's %q", in.TraceHash, over.TraceHash, hash)
				}
				return
			}
			if !hooked.Load() {
				t.Error("the in-process recording never reached the Recorded hook")
			}
			shipped, err := base64.StdEncoding.DecodeString(over.TraceB64)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := trace.ReadBinary(bytes.NewReader(shipped))
			if err != nil {
				t.Fatalf("shipped trace: %v", err)
			}
			if got, _, err := store.HashTrace(rec); err != nil || got != over.TraceHash {
				t.Errorf("shipped trace hashes to %q (%v), completion says %q", got, err, over.TraceHash)
			}
		})
	}
}
