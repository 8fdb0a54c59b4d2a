package server

// Scheduling: every analysis runs on a fleet.Analyzer holding the job
// under a time-bounded lease in the lease table (lease.go, where the
// failure rules live). This file is the server's side of the protocol:
// operations over the internal/fleet wire structs that call the table
// and apply what it returns — status codes, logs, events, journal
// records, counters and the grant's payload — and the finishing of a
// result. The single role's in-process analyzers call them through
// localCoordinator, a coordinator's remote nodes through HTTP handlers
// that only decode, call and encode. The roles' other differences are
// small policies (DESIGN.md §14): drain, restart, and leases that end
// only by completion in the single role. A completion claims the job in
// the table, so the first result wins, and records it — corpus writes
// included — outside the table's mutex.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"wolf/internal/fingerprint"
	"wolf/internal/fleet"
	"wolf/internal/obs"
	"wolf/internal/trace"
)

// Server roles. Analyzer nodes are not servers — they are clients of a
// coordinator (internal/fleet.Analyzer) — so the only roles here are
// the default single process and the coordinator.
const (
	RoleSingle      = ""
	RoleCoordinator = "coordinator"
)

// answer maps a lease-table verdict to its wire status and message; -1
// means the caller has gone.
func answer(v verdict) (int, string) {
	switch v {
	case granted:
		return http.StatusOK, ""
	case refusedClosed:
		return http.StatusServiceUnavailable, string(v)
	case refusedNode:
		return http.StatusNotFound, string(v)
	case refusedGone:
		return -1, ""
	case refusedIdle:
		return http.StatusNoContent, ""
	}
	return http.StatusConflict, string(v) // the lease is lost
}

// pullHold is how long a pull with nothing to lease waits at the
// coordinator: half the heartbeat timeout, so an idle analyzer is
// answered well inside the silence that would mark it lost.
func (s *Server) pullHold() time.Duration { return s.cfg.HeartbeatTimeout / 2 }

// sweep expires nodes and leases as of now; the janitor runs it, and
// tests drive time through it explicitly.
func (s *Server) sweep(now time.Time) {
	lost, reassigned, failed := s.table.sweep(now)
	for _, n := range lost {
		s.metrics.NodesLost.Add(1)
		s.cfg.Logger.Warn("node lost: missed heartbeats", "node", n.id, "name", n.name,
			"last_seen", n.lastSeen, "timeout", s.cfg.HeartbeatTimeout)
		s.event(obs.Event{Kind: evNodeLost, Msg: "missed heartbeats",
			Attrs: map[string]string{"node": n.id, "name": n.name}})
	}
	for _, ra := range reassigned {
		j := ra.job
		s.metrics.JobsReassigned.Add(1)
		s.persistJob(j)
		s.cfg.Logger.Warn("job reassigned", "job", j.ID, "from", ra.from, "cause", ra.cause,
			"attempts", j.Attempts())
		s.jobEvent(evJobReassigned, j, ra.cause, map[string]string{"from": ra.from})
	}
	s.failExhausted(failed)
}

// failExhausted terminal-fails jobs the table claimed because their
// redelivery budget is spent.
func (s *Server) failExhausted(jobs []*Job) {
	for _, j := range jobs {
		s.failJob(j, FailReassign, fmt.Sprintf("delivered %d times without completion (reassign budget exhausted)",
			j.Attempts()), "reassign budget exhausted", "")
		s.cfg.Logger.Error("job failed: reassign budget exhausted", "job", j.ID,
			"attempts", j.Attempts())
	}
}

// failJob terminal-fails a job the table claimed under reason, journals
// it and publishes job.failed with event as its message, naming node on
// a coordinator when one delivered the failure.
func (s *Server) failJob(j *Job, reason FailReason, msg, event, node string) {
	s.metrics.Fail(reason) // counted before the job reads failed
	j.fail(msg)
	s.persistJob(j)
	attrs := map[string]string{"reason": string(reason)}
	if node != "" && s.coordinator() {
		attrs["node"] = node
	}
	s.jobEvent(evJobFailed, j, event, attrs)
}

// workPayload builds the grant for one job: its trace, or the workload
// the analyzer records itself. An in-process analyzer gets the decoded
// trace by pointer. A remote node gets base64 WTRC: the encoding an
// earlier grant kept, the corpus blob after a restart, or the decoded
// trace encoded now, which the job then keeps in its place for a
// re-offer and for once it is terminal.
func (s *Server) workPayload(j *Job) (fleet.WorkView, error) {
	tr, wtrc, hash := j.traceSource()
	w := fleet.WorkView{Job: j.ID, Source: j.Source(), TraceID: j.TraceID(), TraceHash: hash}
	switch {
	case tr != nil && !s.coordinator():
		w.Trace = tr
		return w, nil
	case tr != nil:
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return w, fmt.Errorf("encode trace: %w", err)
		}
		wtrc = buf.Bytes()
		j.keepWTRC(wtrc)
	case wtrc == nil && hash != "" && s.cfg.Store != nil:
		if rc, _, err := s.cfg.Store.OpenTrace(hash); err == nil {
			wtrc, err = io.ReadAll(rc)
			rc.Close()
			if err != nil {
				return w, err
			}
		}
	}
	if wtrc != nil {
		w.TraceB64 = base64.StdEncoding.EncodeToString(wtrc)
		return w, nil
	}
	if name, ok := strings.CutPrefix(w.Source, "workload:"); ok {
		w.Workload = name
		w.Seed = j.wlSeed
		w.SeedTries = s.cfg.SeedTries
		w.Recorded = j.setTrace
		return w, nil
	}
	return w, fmt.Errorf("job %s has no deliverable work: trace not in memory or corpus", j.ID)
}

// register admits an analyzer and hands it the fleet timings. Only a
// coordinator announces its nodes.
func (s *Server) register(_ context.Context, req fleet.RegisterRequest) (fleet.RegisterView, int, string) {
	if req.Name == "" {
		req.Name = "analyzer"
	}
	id := s.table.register(req.Name)
	s.metrics.NodesRegistered.Add(1)
	if s.coordinator() {
		s.cfg.Logger.Info("node joined", "node", id, "name", req.Name)
		s.event(obs.Event{Kind: evNodeJoin, Msg: "node registered",
			Attrs: map[string]string{"node": id, "name": req.Name}})
	}
	return fleet.RegisterView{
		ID:                     id,
		Name:                   req.Name,
		HeartbeatMillis:        fleet.ToMillis(s.cfg.HeartbeatInterval),
		HeartbeatTimeoutMillis: fleet.ToMillis(s.cfg.HeartbeatTimeout),
		LeaseTTLMillis:         fleet.ToMillis(s.cfg.LeaseTTL),
		PullHoldMillis:         fleet.ToMillis(s.pullHold()),
	}, http.StatusOK, ""
}

// pull leases one job to the calling node. A pull with nothing to lease
// parks until the table wakes it, ctx ends, or the hold (pullHold) runs
// out, and then pulls again. 204 means the hold passed with no work;
// 404 sends an unknown or lost node back to registration; 503 means
// the server is shutting down; -1 means the caller has gone.
func (s *Server) pull(ctx context.Context, req fleet.PullRequest) (fleet.WorkView, int, string) {
	hold := time.NewTimer(s.pullHold())
	defer hold.Stop()
	var w *pullWaiter
	expired := false
	for {
		j, attempts, wait, v := s.table.pull(req.Node, w, ctx.Err() != nil, expired)
		if j != nil {
			return s.grant(j, req.Node, attempts)
		}
		if w = wait; w == nil {
			status, msg := answer(v)
			return fleet.WorkView{}, status, msg
		}
		select {
		case <-w.wake:
		case <-ctx.Done():
		case <-hold.C:
			expired = true
		}
	}
}

// grant builds the payload of a job the table leased to node, outside
// the table's mutex: for a job requeued after a restart it reads the
// corpus. A job whose work cannot be delivered (e.g. its blob was
// deleted) is terminal-failed rather than spun through the budget, its
// lease dropped, and the pull answers 204.
func (s *Server) grant(j *Job, node string, attempts int) (fleet.WorkView, int, string) {
	payload, err := s.workPayload(j)
	if err != nil {
		if s.table.complete(j, "", false) { // no node is charged with it
			s.failJob(j, FailError, "undeliverable: "+err.Error(), err.Error(), "")
		}
		return fleet.WorkView{}, http.StatusNoContent, ""
	}
	wait := time.Since(j.CreatedAt())
	if attempts == 1 {
		s.metrics.QueueWait.Observe(wait)
	}
	payload.Attempts = attempts
	payload.LeaseTTLMillis = fleet.ToMillis(s.cfg.LeaseTTL)
	if !s.coordinator() {
		// Not journaled: a restarted single role fails unfinished jobs.
		s.cfg.Logger.Info("job started", "job", j.ID, "source", payload.Source, "trace", payload.TraceID, "queue_wait", wait)
		s.jobEvent(evJobStarted, j, "", nil)
		return payload, http.StatusOK, ""
	}
	s.persistJob(j)
	s.cfg.Logger.Info("job leased", "job", j.ID, "node", node, "attempts", attempts)
	s.jobEvent(evJobStarted, j, "leased to node",
		map[string]string{"node": node, "attempts": fmt.Sprint(attempts)})
	return payload, http.StatusOK, ""
}

// renew extends a lease. 409 means the lease is gone (expired,
// reassigned, or the job finished) and the analyzer must abandon the
// run. On a coordinator, renewing past MaxRenewals flags the holder as a
// straggler and re-offers the job to a second node.
func (s *Server) renew(_ context.Context, req fleet.RenewRequest) (fleet.RenewView, int, string) {
	j, _ := s.jobs.get(req.Job)
	v, renewals, reoffered := s.table.renew(j, req.Node)
	if v != granted {
		status, msg := answer(v)
		return fleet.RenewView{}, status, msg
	}
	s.metrics.LeaseRenewals.Add(1)
	if reoffered {
		s.metrics.JobsReassigned.Add(1)
		s.cfg.Logger.Warn("straggler: job re-offered to a second node",
			"job", j.ID, "node", req.Node, "renewals", renewals)
		s.jobEvent(evJobReassigned, j, "straggler re-offer",
			map[string]string{"from": req.Node, "renewals": fmt.Sprint(renewals)})
	}
	return fleet.RenewView{
		Job:            req.Job,
		LeaseTTLMillis: fleet.ToMillis(s.cfg.LeaseTTL),
		Renewals:       renewals,
	}, http.StatusOK, ""
}

// complete accepts a result. First result wins: the job is finished by
// whichever node delivers first — even one whose lease already expired
// (the work is done; discarding it would only waste the redelivery) —
// and later arrivals get "duplicate". The winner claims the job in the
// table and records it after. Unknown jobs are a 404; a successful
// result whose report is not a JSON object is a 400 and changes
// nothing.
func (s *Server) complete(ctx context.Context, req fleet.CompleteRequest) (fleet.CompleteView, int, string) {
	// The request decoder validated the JSON, so its first byte tells an
	// object from any other value.
	if req.OK && (len(req.Report) == 0 || req.Report[0] != '{') {
		return fleet.CompleteView{}, http.StatusBadRequest, "a successful completion carries a report, a JSON object"
	}
	j, found := s.jobs.get(req.Job)
	if !found {
		return fleet.CompleteView{}, http.StatusNotFound, "no such job"
	}
	if !s.table.complete(j, req.Node, req.OK) {
		s.metrics.DuplicateResults.Add(1)
		s.cfg.Logger.Info("duplicate result discarded", "job", j.ID, "node", req.Node)
		return fleet.CompleteView{Job: j.ID, Result: "duplicate"}, http.StatusOK, ""
	}
	if req.OK {
		s.finish(ctx, j, &req)
	} else {
		s.failResult(j, &req)
	}
	return fleet.CompleteView{Job: j.ID, Result: "accepted"}, http.StatusOK, ""
}

// failResult fails a job by an analyzer's verdict, counted under the
// reason it carries; unknown reasons count as errors.
func (s *Server) failResult(j *Job, req *fleet.CompleteRequest) {
	msg := cmp.Or(req.Error, "analyzer reported failure")
	reason := FailReason(req.Reason)
	switch reason {
	case FailTimeout, FailPanic, FailWatchdog:
	default:
		reason = FailError
	}
	s.failJob(j, reason, msg, msg, req.Node)
	log := s.cfg.Logger.With("job", j.ID, "source", j.Source(), "trace", j.TraceID())
	if s.coordinator() {
		log = log.With("node", req.Node)
	}
	log.Warn("analysis failed", "reason", reason, "err", msg)
}

// finish records a successful result, in-process or remote alike: its
// report verbatim in the job's terminal record, and its summaries in the
// corpus and its tally in the metrics before the job reads done; then
// one replay.verdict event per confirmed fingerprint.
func (s *Server) finish(ctx context.Context, j *Job, req *fleet.CompleteRequest) {
	s.keepTrace(ctx, j, req)
	rec := j.doneRecord(req.Report, time.Now())
	journaled := s.cfg.Store != nil && s.settle(ctx, j, rec, req.Summaries)
	elapsed := rec.Finished.Sub(rec.Started)
	s.metrics.observe(req.Tally, elapsed)
	j.finish(rec, journaled)
	attrs := map[string]string{
		"cycles":  strconv.Itoa(req.Tally.Cycles),
		"defects": strconv.Itoa(req.Tally.Defects()),
	}
	log := s.cfg.Logger
	if s.coordinator() {
		attrs["node"] = req.Node
		log = log.With("node", req.Node)
	}
	log.Info("job done", "job", j.ID, "source", rec.Source, "trace", rec.Trace,
		"cycles", req.Tally.Cycles, "defects", req.Tally.Defects(), "elapsed", elapsed)
	for _, sum := range req.Summaries {
		if sum.Confirmed {
			s.jobEvent(evReplayVerdict, j, "cycle confirmed by replay", map[string]string{
				"method":      sum.Method,
				"fingerprint": fingerprint.Short(sum.Fingerprint),
			})
		}
	}
	s.jobEvent(evJobDone, j, "", attrs)
}

// keepTrace archives a finishing job's trace the corpus lacks, or leaves
// it for the job to keep as WTRC without a corpus: mostly a workload's
// recording, handed over through the grant's Recorded hook in process or
// shipped by a remote analyzer, dropped (the verdict still counts) when
// it fails to decode or validate.
func (s *Server) keepTrace(ctx context.Context, j *Job, req *fleet.CompleteRequest) {
	tr, wtrc, hash := j.traceSource()
	if hash != "" || wtrc != nil {
		return
	}
	if tr == nil && req.TraceB64 != "" {
		raw, err := base64.StdEncoding.DecodeString(req.TraceB64)
		if err == nil {
			tr, err = trace.ReadBinary(bytes.NewReader(raw))
		}
		if err != nil {
			s.cfg.Logger.Error("shipped trace rejected, not archived", "job", j.ID, "node", req.Node,
				"trace", j.TraceID(), "err", err)
			s.jobEvent(evStoreTrace, j, "shipped trace rejected: "+err.Error(), map[string]string{"node": req.Node})
			return
		}
		j.setTrace(tr)
	}
	s.archiveTrace(ctx, j, tr)
}

// localCoordinator is the protocol in process, for the single role's
// analyzers: a grant hands its trace over by pointer, a result is the
// wire struct, and a pull refused by the drain stops the analyzer.
type localCoordinator struct {
	s    *Server
	stop context.CancelFunc
}

// answered drops a protocol method's refusal message: in process, a
// refusal is its status alone.
func answered[V any](v V, status int, _ string) (V, int, error) { return v, status, nil }

func (c *localCoordinator) Register(ctx context.Context, req fleet.RegisterRequest) (fleet.RegisterView, int, error) {
	return answered(c.s.register(ctx, req))
}

func (c *localCoordinator) Heartbeat(_ context.Context, node string) (int, error) {
	if !c.s.table.heartbeat(node) {
		return http.StatusNotFound, nil
	}
	return http.StatusOK, nil
}

func (c *localCoordinator) Pull(ctx context.Context, req fleet.PullRequest) (fleet.WorkView, int, error) {
	w, status, _ := c.s.pull(ctx, req)
	if status == http.StatusServiceUnavailable {
		c.stop()
	}
	return w, status, nil
}

func (c *localCoordinator) Renew(ctx context.Context, req fleet.RenewRequest) (fleet.RenewView, int, error) {
	return answered(c.s.renew(ctx, req))
}

func (c *localCoordinator) Complete(ctx context.Context, req fleet.CompleteRequest) (fleet.CompleteView, int, error) {
	return answered(c.s.complete(ctx, req))
}

// startAnalyzers runs the single role's Workers in-process analyzers,
// once, unless Shutdown has begun. Their leases end only by completion
// (lease.go). The analyzers log nothing; the server logs each job's
// start and verdict.
func (s *Server) startAnalyzers() {
	s.analyzers.Do(func() {
		for i := 0; i < s.cfg.Workers; i++ {
			ctx, stop := context.WithCancel(context.Background())
			a := fleet.NewAnalyzerFor(&localCoordinator{s: s, stop: stop},
				s.analyzerConfig(fmt.Sprintf("local-%d", i+1), slog.New(slog.DiscardHandler)))
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				a.Run(ctx)
			}()
		}
	})
}

// analyzerConfig is the in-process analyzers' configuration: the
// server's timeout, watchdog grace, pipeline and seed search.
func (s *Server) analyzerConfig(name string, log *slog.Logger) fleet.AnalyzerConfig {
	return fleet.AnalyzerConfig{
		Name:          name,
		JobTimeout:    s.cfg.JobTimeout,
		WatchdogGrace: s.cfg.WatchdogGrace,
		Analysis:      s.cfg.Analysis,
		Analyze:       s.cfg.Analyze,
		SeedTries:     s.cfg.SeedTries,
		Logger:        log,
	}
}

// requireCoordinator guards the fleet endpoints.
func (s *Server) requireCoordinator(w http.ResponseWriter) bool {
	if !s.coordinator() {
		httpError(w, http.StatusServiceUnavailable,
			"not a coordinator: start wolfd with -role=coordinator")
	}
	return s.coordinator()
}

// fleetHandler serves one protocol operation over HTTP: decode the
// request, call, encode the reply.
func fleetHandler[Req, Resp any](s *Server, op string, limit int64,
	call func(context.Context, Req) (Resp, int, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.requireCoordinator(w) {
			return
		}
		var req Req
		body := http.MaxBytesReader(w, r.Body, limit)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad "+op+" request: "+err.Error())
			return
		}
		// Read to EOF: only then does net/http watch the connection, so a
		// client that hangs up a parked pull ends its context.
		io.Copy(io.Discard, body)
		resp, status, msg := call(r.Context(), req)
		switch {
		case status < 0: // the client has gone
		case status == http.StatusNoContent:
			w.WriteHeader(status)
		case status >= 300:
			httpError(w, status, msg)
		default:
			writeJSON(w, status, resp)
		}
	}
}

// handleNodeList is GET /v1/nodes. It answers in every role so wolfctl
// nodes works uniformly; a single-process wolfd lists none.
func (s *Server) handleNodeList(w http.ResponseWriter, r *http.Request) {
	views := []fleet.NodeView{}
	if s.coordinator() {
		for _, n := range s.table.counts().nodes {
			state := "alive"
			if n.lost() {
				state = "lost"
			}
			views = append(views, fleet.NodeView{
				ID:            n.id,
				Name:          n.name,
				State:         state,
				Leased:        n.leased,
				Completed:     n.completed,
				Failed:        n.failed,
				Registered:    n.registered.UTC().Format(time.RFC3339Nano),
				LastHeartbeat: n.lastSeen.UTC().Format(time.RFC3339Nano),
			})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": views})
}

// handleNodeHeartbeat is POST /v1/nodes/{id}/heartbeat. 404 for an
// unknown or lost node tells the analyzer to re-register.
func (s *Server) handleNodeHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	if !s.table.heartbeat(r.PathValue("id")) {
		status, msg := answer(refusedNode)
		httpError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
