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

// Analyzer is one fleet worker: it registers with the coordinator,
// heartbeats, pulls leased work, renews leases while analyzing, and
// delivers results. Create with NewAnalyzer, drive with Run.
type Analyzer struct {
	cfg AnalyzerConfig

	// id is the coordinator-assigned node identity; timings come from
	// the registration reply. Written by register, read by the loops.
	id               atomic.Value // string
	heartbeatEvery   time.Duration
	heartbeatTimeout time.Duration
	leaseTTL         time.Duration
	pullHold         time.Duration

	completed atomic.Int64
	failed    atomic.Int64
	abandoned atomic.Int64
	started   time.Time
}

// NewAnalyzer builds an analyzer for the given coordinator.
func NewAnalyzer(cfg AnalyzerConfig) *Analyzer {
	cfg.fill()
	a := &Analyzer{cfg: cfg, started: time.Now()}
	a.id.Store("")
	return a
}

// ID returns the coordinator-assigned node ID (empty before the first
// successful registration).
func (a *Analyzer) ID() string { return a.id.Load().(string) }

// url joins a path onto the coordinator base.
func (a *Analyzer) url(path string) string { return a.cfg.Coordinator + path }

// postJSON posts v and decodes the response body into out (when the
// status is 2xx and out is non-nil). The response status is always
// returned for protocol branching. Ending ctx abandons the request,
// retries included.
func (a *Analyzer) postJSON(ctx context.Context, path string, v, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.url(path), bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, nil
}

// register announces the node and adopts the coordinator's timings. It
// keeps trying with exponential backoff + jitter until it succeeds or
// ctx ends — an analyzer started before its coordinator just waits.
func (a *Analyzer) register(ctx context.Context) error {
	delay := 100 * time.Millisecond
	for {
		var view RegisterView
		status, err := a.postJSON(ctx, "/v1/nodes", RegisterRequest{Name: a.cfg.Name}, &view)
		if err == nil && status == http.StatusOK {
			a.id.Store(view.ID)
			a.heartbeatEvery = Millis(view.HeartbeatMillis)
			a.heartbeatTimeout = Millis(view.HeartbeatTimeoutMillis)
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
		jittered := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(jittered):
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

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var work WorkView
		status, err := a.postJSON(ctx, "/v1/work/pull", PullRequest{Node: a.ID()}, &work)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			a.cfg.Logger.Warn("pull failed", "err", err)
			if !a.sleep(ctx, a.cfg.Poll) {
				return ctx.Err()
			}
		case status == http.StatusOK:
			a.runWork(ctx, work)
		case status == http.StatusNotFound:
			a.cfg.Logger.Warn("coordinator forgot this node; re-registering", "node", a.ID())
			if err := a.register(ctx); err != nil {
				return err
			}
		case status == http.StatusNoContent && a.pullHold > 0:
			// The coordinator already waited for work; ask again.
		case status == http.StatusNoContent || status == http.StatusServiceUnavailable:
			if !a.sleep(ctx, a.cfg.Poll) {
				return ctx.Err()
			}
		default:
			a.cfg.Logger.Warn("unexpected pull status", "status", status)
			if !a.sleep(ctx, a.cfg.Poll) {
				return ctx.Err()
			}
		}
	}
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
			if status, err := a.postJSON(ctx, "/v1/nodes/"+id+"/heartbeat", struct{}{}, nil); err != nil {
				a.cfg.Logger.Warn("heartbeat failed", "err", err)
			} else if status == http.StatusNotFound {
				a.cfg.Logger.Warn("heartbeat rejected: node unknown", "node", id)
			}
		}
	}
}

// materialize produces the trace for one work item: decode the shipped
// blob, or record the named workload locally. For recorded workloads
// the WTRC encoding and its content address are returned too, so the
// completion can ship the blob back to the corpus.
func (a *Analyzer) materialize(w WorkView) (tr *trace.Trace, wtrc []byte, hash string, err error) {
	if w.TraceB64 != "" {
		raw, err := base64.StdEncoding.DecodeString(w.TraceB64)
		if err != nil {
			return nil, nil, "", fmt.Errorf("bad trace payload: %w", err)
		}
		tr, err := trace.ReadBinary(bytes.NewReader(raw))
		if err != nil {
			return nil, nil, "", fmt.Errorf("bad trace payload: %w", err)
		}
		return tr, nil, w.TraceHash, nil
	}
	wl, ok := workloads.ByName(w.Workload)
	if !ok {
		return nil, nil, "", fmt.Errorf("unknown workload %q", w.Workload)
	}
	seed := w.Seed
	if seed == 0 {
		tries := w.SeedTries
		if tries <= 0 {
			tries = a.cfg.SeedTries
		}
		found, ok := workloads.FindTerminatingSeed(wl.New, tries)
		if !ok {
			return nil, nil, "", fmt.Errorf("no terminating detection seed found in %d tries", tries)
		}
		seed = found
	}
	tr = core.Record(wl.New, seed, 0)
	hash, wtrc, err = store.HashTrace(tr)
	if err != nil {
		return nil, nil, "", err
	}
	return tr, wtrc, hash, nil
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
	runCtx, cancel := context.WithTimeout(ctx, a.cfg.JobTimeout)
	defer cancel()
	runCtx = obs.WithTrace(runCtx, w.TraceID, "")
	// A finished analysis is delivered even when the job's timeout or
	// Run's cancellation has already fired: the result (or the timeout
	// verdict) must reach the coordinator.
	doneCtx := context.WithoutCancel(ctx)

	// Lease renewal runs beside the analysis; leaseLost flips when the
	// coordinator says the lease is gone.
	var leaseLost atomic.Bool
	renewDone := make(chan struct{})
	renewStop := make(chan struct{})
	go func() {
		defer close(renewDone)
		every := ttl / 3
		if every <= 0 {
			every = time.Second
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-renewStop:
				return
			case <-tick.C:
				status, err := a.postJSON(runCtx, "/v1/work/renew", RenewRequest{Node: a.ID(), Job: w.Job}, nil)
				if err != nil {
					log.Warn("lease renewal failed", "err", err)
					continue
				}
				if status == http.StatusConflict || status == http.StatusNotFound {
					leaseLost.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	stopRenewals := func() {
		close(renewStop)
		<-renewDone
	}

	tr, wtrc, hash, err := a.materialize(w)
	if err != nil {
		stopRenewals()
		a.complete(doneCtx, log, CompleteRequest{Node: a.ID(), Job: w.Job, Error: err.Error()})
		return
	}
	rep, err := a.cfg.Analyze(runCtx, tr, a.cfg.Analysis)
	stopRenewals()
	if leaseLost.Load() {
		// The job is someone else's now; drop the result on the floor.
		a.abandoned.Add(1)
		log.Warn("lease lost mid-analysis; result abandoned")
		return
	}
	if err != nil {
		msg := err.Error()
		if errors.Is(err, context.DeadlineExceeded) {
			msg = fmt.Sprintf("analysis timed out after %v", a.cfg.JobTimeout)
		}
		a.complete(doneCtx, log, CompleteRequest{Node: a.ID(), Job: w.Job, Error: msg})
		return
	}
	raw, err := json.Marshal(report.FromCore(rep))
	if err != nil {
		a.complete(doneCtx, log, CompleteRequest{Node: a.ID(), Job: w.Job, Error: "encode report: " + err.Error()})
		return
	}
	req := CompleteRequest{
		Node:      a.ID(),
		Job:       w.Job,
		OK:        true,
		Report:    raw,
		Summaries: store.Summarize(rep),
		TraceHash: hash,
	}
	if wtrc != nil {
		req.TraceB64 = base64.StdEncoding.EncodeToString(wtrc)
	}
	a.complete(doneCtx, log, req)
}

// complete delivers one result and logs the coordinator's verdict.
func (a *Analyzer) complete(ctx context.Context, log *slog.Logger, req CompleteRequest) {
	if req.OK {
		a.completed.Add(1)
	} else {
		a.failed.Add(1)
	}
	var view CompleteView
	status, err := a.postJSON(ctx, "/v1/work/complete", req, &view)
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
