package fleet

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wolf/internal/core"
	"wolf/internal/httpx"
	"wolf/internal/obs"
	"wolf/internal/report"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// AnalyzerConfig controls one analyzer node.
type AnalyzerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name is the node's self-chosen label (default: hostname).
	Name string
	// Poll is the back-off after a failed pull or a 503 (default
	// 500ms). A coordinator that holds idle pulls (RegisterView's
	// PullHoldMillis > 0) is pulled again at once after a 204; against
	// one that does not, Poll is also the sleep between idle pulls.
	Poll time.Duration
	// JobTimeout cancels an analysis that runs longer (default 30s) —
	// the local bound; the coordinator's lease is the distributed one.
	JobTimeout time.Duration
	// WatchdogGrace is how long past JobTimeout the analyzer waits for a
	// cancelled analysis before abandoning it and reporting a "watchdog"
	// failure (default 2s).
	WatchdogGrace time.Duration
	// Analysis configures the offline pipeline.
	Analysis core.Config
	// Analyze overrides the analysis function (tests); default
	// core.AnalyzeTraceCtx.
	Analyze func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error)
	// SeedTries bounds the terminating-seed search for workload jobs
	// when the coordinator does not send its own bound (default 300).
	SeedTries int
	// Logger receives lifecycle logs; silent when nil.
	Logger *slog.Logger
	// Client is the retrying HTTP client; a default with RetryConnect
	// (the fleet protocol tolerates duplicated requests) is built when
	// nil.
	Client *httpx.Client
}

func (c *AnalyzerConfig) fill() {
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = 2 * time.Second
	}
	if c.Analyze == nil {
		c.Analyze = core.AnalyzeTraceCtx
	}
	if c.SeedTries <= 0 {
		c.SeedTries = 300
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Client == nil {
		// Every fleet request is safe to duplicate: registration and
		// heartbeats are idempotent, pull grants are lease-tracked, and
		// completion is first-result-wins — so transport-error retry is
		// on.
		c.Client = &httpx.Client{RetryConnect: true}
	}
}

// Coordinator is the fleet protocol as an analyzer sees it: the five
// operations, each answering with its reply and an HTTP status code.
// An error means the call never got an answer. NewAnalyzer speaks it
// over HTTP; wolfd's single role implements it in process.
type Coordinator interface {
	Register(ctx context.Context, req RegisterRequest) (RegisterView, int, error)
	Heartbeat(ctx context.Context, node string) (int, error)
	Pull(ctx context.Context, req PullRequest) (WorkView, int, error)
	Renew(ctx context.Context, req RenewRequest) (RenewView, int, error)
	Complete(ctx context.Context, req CompleteRequest) (CompleteView, int, error)
}

// Analyzer is one fleet worker: it registers with the coordinator,
// heartbeats, pulls leased work, renews leases while analyzing, and
// delivers results. Create with NewAnalyzer, drive with Run.
type Analyzer struct {
	cfg   AnalyzerConfig
	coord Coordinator

	// id is the coordinator-assigned node identity; timings come from
	// the registration reply. Written by register, read by the loops.
	id             atomic.Value // string
	heartbeatEvery time.Duration
	leaseTTL       time.Duration
	pullHold       time.Duration

	completed atomic.Int64
	failed    atomic.Int64
	abandoned atomic.Int64
}

// NewAnalyzer builds an analyzer for the coordinator at cfg.Coordinator.
func NewAnalyzer(cfg AnalyzerConfig) *Analyzer {
	cfg.fill()
	return NewAnalyzerFor(httpCoordinator{base: cfg.Coordinator, client: cfg.Client}, cfg)
}

// NewAnalyzerFor builds an analyzer that speaks to c.
func NewAnalyzerFor(c Coordinator, cfg AnalyzerConfig) *Analyzer {
	cfg.fill()
	a := &Analyzer{cfg: cfg, coord: c}
	a.id.Store("")
	return a
}

// ID returns the coordinator-assigned node ID (empty before the first
// successful registration).
func (a *Analyzer) ID() string { return a.id.Load().(string) }

// httpCoordinator is the Coordinator over the coordinator's HTTP API.
type httpCoordinator struct {
	base   string
	client *httpx.Client
}

func (c httpCoordinator) Register(ctx context.Context, req RegisterRequest) (RegisterView, int, error) {
	return post[RegisterView](ctx, c, "/v1/nodes", req)
}

func (c httpCoordinator) Heartbeat(ctx context.Context, node string) (int, error) {
	_, status, err := post[struct{}](ctx, c, "/v1/nodes/"+node+"/heartbeat", struct{}{})
	return status, err
}

func (c httpCoordinator) Pull(ctx context.Context, req PullRequest) (WorkView, int, error) {
	return post[WorkView](ctx, c, "/v1/work/pull", req)
}

func (c httpCoordinator) Renew(ctx context.Context, req RenewRequest) (RenewView, int, error) {
	return post[RenewView](ctx, c, "/v1/work/renew", req)
}

func (c httpCoordinator) Complete(ctx context.Context, req CompleteRequest) (CompleteView, int, error) {
	return post[CompleteView](ctx, c, "/v1/work/complete", req)
}

// post posts v to the coordinator and decodes a 2xx reply other than
// 204 into an R. The response status is always returned for protocol
// branching. Ending ctx abandons the request, retries included.
func post[R any](ctx context.Context, c httpCoordinator, path string, v any) (out R, status int, err error) {
	body, err := json.Marshal(v)
	if err != nil {
		return out, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		return out, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return out, resp.StatusCode, nil
}

// register announces the node and adopts the coordinator's timings. It
// keeps trying with exponential backoff + jitter until it succeeds or
// ctx ends — an analyzer started before its coordinator just waits.
func (a *Analyzer) register(ctx context.Context) error {
	delay := 100 * time.Millisecond
	for {
		view, status, err := a.coord.Register(ctx, RegisterRequest{Name: a.cfg.Name})
		if err == nil && status == http.StatusOK {
			a.id.Store(view.ID)
			a.heartbeatEvery = Millis(view.HeartbeatMillis)
			a.leaseTTL = Millis(view.LeaseTTLMillis)
			a.pullHold = Millis(view.PullHoldMillis)
			a.cfg.Logger.Info("registered with coordinator",
				"node", view.ID, "coordinator", a.cfg.Coordinator,
				"heartbeat", a.heartbeatEvery, "lease_ttl", a.leaseTTL, "pull_hold", a.pullHold)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			a.cfg.Logger.Warn("registration failed, retrying", "err", err, "delay", delay)
		} else {
			a.cfg.Logger.Warn("registration rejected, retrying", "status", status, "delay", delay)
		}
		if !a.sleep(ctx, delay/2+time.Duration(rand.Int63n(int64(delay/2)+1))) {
			return ctx.Err()
		}
		if delay *= 2; delay > 5*time.Second {
			delay = 5 * time.Second
		}
	}
}

// Run registers and then works until ctx is cancelled. A 404 from any
// fleet endpoint means the coordinator no longer knows the node (it
// restarted, or declared this node lost); the analyzer re-registers
// under a fresh identity and carries on — that is the whole
// coordinator-restart survival story on this side. Pulls are long
// polls: the coordinator holds an idle pull until work arrives, so
// after a 204 the analyzer pulls again at once; it sleeps Poll only
// after a failed pull or a 503, or between idle pulls to a coordinator
// that does not hold them. Cancelling ctx ends a parked pull at once.
func (a *Analyzer) Run(ctx context.Context) error {
	if err := a.register(ctx); err != nil {
		return err
	}
	hbCtx, stopHeartbeat := context.WithCancel(ctx)
	defer stopHeartbeat()
	go a.heartbeatLoop(hbCtx)

	for ctx.Err() == nil {
		work, status, err := a.coord.Pull(ctx, PullRequest{Node: a.ID()})
		switch {
		case ctx.Err() != nil:
		case err == nil && status == http.StatusOK:
			a.runWork(ctx, work)
		case err == nil && status == http.StatusNotFound:
			a.cfg.Logger.Warn("coordinator forgot this node; re-registering", "node", a.ID())
			if err := a.register(ctx); err != nil {
				return err
			}
		case err == nil && status == http.StatusNoContent && a.pullHold > 0:
			// The coordinator already waited for work; ask again.
		default:
			// A failed pull, a 503, an unexpected status, or an idle pull
			// to a coordinator that does not hold pulls: back off.
			if err != nil || (status != http.StatusNoContent && status != http.StatusServiceUnavailable) {
				a.cfg.Logger.Warn("pull failed", "status", status, "err", err)
			}
			a.sleep(ctx, a.cfg.Poll)
		}
	}
	return ctx.Err()
}

// sleep waits d or until ctx ends; it reports whether ctx is still
// live.
func (a *Analyzer) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// heartbeatLoop announces liveness until ctx ends. Heartbeats are
// fire-and-forget: a 404 is left for the work loop to resolve via
// re-registration (pulls also count as liveness on the coordinator, so
// a busy analyzer never goes lost just because one heartbeat raced a
// re-registration).
func (a *Analyzer) heartbeatLoop(ctx context.Context) {
	every := a.heartbeatEvery
	if every <= 0 {
		every = time.Second
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			id := a.ID()
			if id == "" {
				continue
			}
			if status, err := a.coord.Heartbeat(ctx, id); err != nil {
				a.cfg.Logger.Warn("heartbeat failed", "err", err)
			} else if status == http.StatusNotFound {
				a.cfg.Logger.Warn("heartbeat rejected: node unknown", "node", id)
			}
		}
	}
}

// materialize produces the trace for one work item: the one handed
// over in memory, the decoded shipped blob, or a local recording of the
// named workload, which recorded reports so the completion carries the
// trace back.
func (a *Analyzer) materialize(w WorkView) (tr *trace.Trace, recorded bool, err error) {
	if w.Trace != nil {
		return w.Trace, false, nil
	}
	if w.TraceB64 != "" {
		raw, err := base64.StdEncoding.DecodeString(w.TraceB64)
		if err == nil {
			tr, err = trace.ReadBinary(bytes.NewReader(raw))
		}
		if err != nil {
			return nil, false, fmt.Errorf("bad trace payload: %w", err)
		}
		return tr, false, nil
	}
	wl, ok := workloads.ByName(w.Workload)
	if !ok {
		return nil, false, fmt.Errorf("unknown workload %q", w.Workload)
	}
	seed := w.Seed
	if seed == 0 {
		tries := w.SeedTries
		if tries <= 0 {
			tries = a.cfg.SeedTries
		}
		found, ok := workloads.FindTerminatingSeed(wl.New, tries)
		if !ok {
			return nil, false, fmt.Errorf("no terminating detection seed found in %d tries", tries)
		}
		seed = found
	}
	return core.Record(wl.New, seed, 0), true, nil
}

// runWork analyzes one leased job, renewing the lease while the
// analysis runs. Losing the lease (renew 409: the coordinator
// reassigned or finished the job) cancels the analysis and abandons it
// silently — no completion is sent, so a cancelled run can never
// terminal-fail a job that now belongs to someone else.
func (a *Analyzer) runWork(ctx context.Context, w WorkView) {
	log := a.cfg.Logger.With("job", w.Job, "source", w.Source, "trace", w.TraceID)
	log.Info("job leased", "attempts", w.Attempts)

	ttl := Millis(w.LeaseTTLMillis)
	if ttl <= 0 {
		ttl = a.leaseTTL
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Lease renewal fires on a timer beside the analysis, holding mu
	// while it runs (and mu guards tick until it is set); leaseLost flips
	// when the coordinator says the lease is gone.
	every := ttl / 3
	if every <= 0 {
		every = time.Second
	}
	var (
		mu                  sync.Mutex
		renewing, leaseLost = true, false
		tick                *time.Timer
	)
	mu.Lock()
	tick = time.AfterFunc(every, func() {
		mu.Lock()
		defer mu.Unlock()
		if !renewing {
			return
		}
		_, status, err := a.coord.Renew(runCtx, RenewRequest{Node: a.ID(), Job: w.Job})
		switch {
		case err != nil:
			log.Warn("lease renewal failed", "err", err)
		case status == http.StatusConflict || status == http.StatusNotFound:
			leaseLost = true
			cancel()
			return
		}
		tick.Reset(every)
	})
	mu.Unlock()

	req := a.Analyze(runCtx, w)
	mu.Lock() // waits out a renewal in flight
	renewing = false
	tick.Stop()
	lost := leaseLost
	mu.Unlock()
	if lost {
		// The job is someone else's now; drop the result on the floor.
		a.abandoned.Add(1)
		log.Warn("lease lost mid-analysis; result abandoned")
		return
	}
	req.Node, req.Job = a.ID(), w.Job
	// A finished analysis is delivered even when the job's timeout or
	// Run's cancellation has already fired: the result (or the timeout
	// verdict) must reach the coordinator.
	a.complete(context.WithoutCancel(ctx), log, req)
}

// Analyze materializes and analyzes one work item as a leased job runs:
// in its own goroutine, under JobTimeout and the item's trace ID. It
// returns the completion to deliver (Node and Job unset); wolfd's
// synchronous POST /v1/analyze runs on it. A panic fails the item, not
// the caller; an analysis that ignores its cancelled context is abandoned
// after JobTimeout+WatchdogGrace (its goroutine exits whenever it
// returns: the channel is buffered).
func (a *Analyzer) Analyze(ctx context.Context, w WorkView) CompleteRequest {
	ctx, cancel := context.WithTimeout(obs.WithTrace(ctx, w.TraceID, ""), a.cfg.JobTimeout)
	defer cancel()
	log := a.cfg.Logger.With("job", w.Job, "source", w.Source, "trace", w.TraceID)
	done := make(chan CompleteRequest, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				log.Error("analysis panicked", "panic", fmt.Sprint(r))
				// The stack is node-side diagnostics, not wire payload.
				os.Stderr.Write(debug.Stack())
				done <- failure(ReasonPanic, fmt.Sprintf("analysis panicked: %v", r))
			}
		}()
		tr, recorded, err := a.materialize(w)
		if recorded && w.Recorded != nil {
			w.Recorded(tr)
		}
		if err != nil {
			done <- failure(ReasonError, err.Error())
			return
		}
		rep, err := a.cfg.Analyze(ctx, tr, a.cfg.Analysis)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			done <- failure(ReasonTimeout, fmt.Sprintf("analysis timed out after %v", a.cfg.JobTimeout))
		case err != nil:
			done <- failure(ReasonError, err.Error())
		default:
			done <- completion(w, tr, recorded && w.Recorded == nil, report.FromCore(rep))
		}
	}()
	watchdog := time.NewTimer(a.cfg.JobTimeout + a.cfg.WatchdogGrace)
	defer watchdog.Stop()
	select {
	case req := <-done:
		return req
	case <-watchdog.C:
		log.Error("analysis abandoned by watchdog", "timeout", a.cfg.JobTimeout, "grace", a.cfg.WatchdogGrace)
		return failure(ReasonWatchdog, fmt.Sprintf("analysis ignored cancellation; abandoned by watchdog after %v",
			a.cfg.JobTimeout+a.cfg.WatchdogGrace))
	}
}

// failure is a failed completion classified by reason.
func failure(reason, msg string) CompleteRequest { return CompleteRequest{Reason: reason, Error: msg} }

// completion renders jr, the report of a successful analysis of w's
// trace tr, in wire form: the report, the corpus summaries and metrics
// tally read off it before it is marshalled and, when ship is set (a
// trace the analyzer recorded itself with no in-process hook to take
// it), the trace's WTRC. A report or trace that cannot be encoded fails
// the item.
func completion(w WorkView, tr *trace.Trace, ship bool, jr *report.JSONReport) CompleteRequest {
	raw, err := json.Marshal(jr)
	if err != nil {
		return failure(ReasonError, "encode report: "+err.Error())
	}
	req := CompleteRequest{OK: true, Report: raw, TraceHash: w.TraceHash}
	req.Summaries, req.Tally = verdicts(jr)
	if ship {
		hash, wtrc, err := store.HashTrace(tr)
		if err != nil {
			return failure(ReasonError, err.Error())
		}
		req.TraceB64, req.TraceHash = base64.StdEncoding.EncodeToString(wtrc), hash
	}
	return req
}

// verdicts reads off jr what a completion carries beside it: the corpus
// summaries, one per fingerprint from its first cycle that is not a
// refuted false positive, and the metrics tally. Verdict classes are
// read by their wire names, "confirmed", "false(pruner)" and so on.
func verdicts(jr *report.JSONReport) (sums []store.CycleSummary, t Tally) {
	t = Tally{Cycles: len(jr.Cycles), Detect: time.Duration(jr.Timings.CycleDetectNs),
		Prune: time.Duration(jr.Timings.PruneNs), Generate: time.Duration(jr.Timings.GenerateNs)}
	for _, d := range jr.Defects {
		switch d.Class {
		case "false(pruner)":
			t.Pruned++
		case "false(generator)", "false(data)":
			t.Infeasible++
		case "confirmed":
			t.Confirmed++
		default:
			t.Unknown++
		}
	}
	seen := make(map[string]bool)
	for i := range jr.Cycles {
		c := &jr.Cycles[i]
		if c.ReplayMethod != "" {
			if t.Confirmations == nil {
				t.Confirmations = map[string]int{}
			}
			t.Confirmations[c.ReplayMethod]++
		}
		for reason, n := range c.Divergence {
			if t.Divergence == nil {
				t.Divergence = map[string]int{}
			}
			t.Divergence[reason] += n
		}
		t.Faults += c.Faults
		if c.Fingerprint == "" || seen[c.Fingerprint] || strings.HasPrefix(c.Class, "false(") {
			continue
		}
		seen[c.Fingerprint] = true
		cs := store.CycleSummary{Fingerprint: c.Fingerprint, Signature: c.Signature, Edges: c.Edges()}
		if c.Class == "confirmed" {
			cs.Confirmed, cs.Method = true, c.ReplayMethod
		}
		sums = append(sums, cs)
	}
	return sums, t
}

// complete delivers one result and logs the coordinator's verdict.
func (a *Analyzer) complete(ctx context.Context, log *slog.Logger, req CompleteRequest) {
	if req.OK {
		a.completed.Add(1)
	} else {
		a.failed.Add(1)
	}
	view, status, err := a.coord.Complete(ctx, req)
	switch {
	case err != nil:
		log.Error("completion delivery failed", "err", err)
	case status == http.StatusOK && view.Result == "duplicate":
		log.Info("result was a duplicate; another node won")
	case status == http.StatusOK:
		log.Info("result delivered", "ok", req.OK)
	default:
		log.Warn("completion rejected", "status", status)
	}
}

// Handler is the analyzer's own small ops surface: /healthz reports
// role and node identity (so probes work on every fleet member),
// /version the build.
func (a *Analyzer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":      "ok",
			"role":        "analyzer",
			"node":        a.ID(),
			"name":        a.cfg.Name,
			"coordinator": a.cfg.Coordinator,
			"completed":   a.completed.Load(),
			"failed":      a.failed.Load(),
			"abandoned":   a.abandoned.Load(),
			"version":     obs.ReadBuildInfo().Version,
		})
	})
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(obs.ReadBuildInfo())
	})
	return mux
}
