package server

// Scheduling: every analysis runs on a fleet.Analyzer holding the job
// under a time-bounded lease. The protocol operations are fleetState
// methods over the internal/fleet wire structs: the single role's
// in-process analyzers call them through localCoordinator, a
// coordinator's remote nodes through HTTP handlers that only decode,
// call and encode. The roles' other differences are small policies
// (DESIGN.md §14): drain, restart, and — in the single role — leases
// that end only by completion, so the first four rules below are a
// coordinator's.
//
// Failure rules, in one place:
//
//   - A node that misses heartbeats past HeartbeatTimeout is marked
//     lost; every lease it holds is revoked and the jobs reassigned.
//   - A lease that expires unrenewed is revoked the same way.
//   - Reassignment is bounded: a job delivered MaxDeliveries times
//     without a result is terminal-failed with reason
//     "reassign-exhausted" — a poison job cannot ping-pong forever.
//   - A lease renewed more than MaxRenewals times marks its holder a
//     straggler: the job is re-offered to a second node while the
//     first keeps running, and the first result to arrive wins. Late
//     results — including one from an expired lease — are accepted
//     whenever the job is still non-terminal, and reported as
//     duplicates otherwise.
//   - On a coordinator restart, journal rehydration re-queues
//     leased-but-unfinished jobs for fresh delivery (the delivery
//     budget survives via the persisted attempt count).
//   - A pull with nothing to lease waits for up to HeartbeatTimeout/2
//     and answers 204 if no work came. Once Shutdown begins no pull
//     leases: parked pulls wake at once with 503.
//   - A completion claims the job under the fleet mutex, so the first
//     result wins, and records it — corpus writes included — after
//     releasing the mutex.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wolf/internal/core"
	"wolf/internal/fingerprint"
	"wolf/internal/fleet"
	"wolf/internal/obs"
	"wolf/internal/replay"
	"wolf/internal/store"
	"wolf/internal/trace"
)

// Server roles. Analyzer nodes are not servers — they are clients of a
// coordinator (internal/fleet.Analyzer) — so the only roles here are
// the default single process and the coordinator.
const (
	RoleSingle      = ""
	RoleCoordinator = "coordinator"
)

// fleetNode is one registered analyzer.
type fleetNode struct {
	id         string
	name       string
	registered time.Time
	lastSeen   time.Time
	lost       bool
	completed  int64
	failed     int64
}

// jobLease is one live grant of a job to a node. A job normally has
// one; a straggler re-offer adds a second.
type jobLease struct {
	node     string
	expiry   time.Time
	renewals int
}

// fleetState is the server's job queue and its node and lease
// bookkeeping. One mutex guards all of it; completions record their
// results outside it.
type fleetState struct {
	s *Server

	mu    sync.Mutex
	seq   int
	nodes map[string]*fleetNode
	// queue is every job waiting for a lease, in delivery order:
	// admissions join the tail, reassigned, re-offered and restored jobs
	// the head.
	queue  []*Job
	leases map[string][]*jobLease
	// reoffered marks jobs already re-offered for straggling, so one
	// slow lease triggers at most one extra delivery.
	reoffered map[string]bool
	// wake is closed and replaced whenever parked pulls must re-check:
	// the queue grew, a node was lost, or leasing closed.
	wake chan struct{}
	// closed is set when Shutdown begins; no job is admitted and no pull
	// leases after it.
	closed bool
	// started is set when the single role's analyzers start: with the
	// first admitted job, so bringing wolfd up stays cheap.
	started bool
	// parked counts pulls now waiting for work.
	parked int
}

func newFleetState(s *Server) *fleetState {
	return &fleetState{
		s:         s,
		nodes:     make(map[string]*fleetNode),
		leases:    make(map[string][]*jobLease),
		reoffered: make(map[string]bool),
		wake:      make(chan struct{}),
	}
}

// pullHold is how long a pull with nothing to lease waits at the
// coordinator: half the heartbeat timeout, so an idle analyzer is
// answered well inside the silence that would mark it lost.
func (f *fleetState) pullHold() time.Duration { return f.s.cfg.HeartbeatTimeout / 2 }

// wakeLocked wakes every parked pull. Caller holds f.mu.
func (f *fleetState) wakeLocked() {
	close(f.wake)
	f.wake = make(chan struct{})
}

// queuedLocked publishes the queue depth and wakes parked pulls after
// the queue grew. Caller holds f.mu.
func (f *fleetState) queuedLocked() {
	f.s.metrics.QueueDepth.Store(int64(len(f.queue)))
	f.wakeLocked()
}

// admit queues a freshly admitted job at the tail. It refuses when
// Shutdown has begun (closed) and when QueueSize jobs already wait
// (!ok); re-offers count against the bound but are never refused. The
// single role's analyzers start with the first admitted job.
func (f *fleetState) admit(j *Job) (ok, closed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false, true
	}
	if !f.started && !f.s.coordinator() {
		f.started = true
		f.s.startAnalyzers()
	}
	if len(f.queue) >= f.s.cfg.QueueSize {
		f.s.metrics.JobsRejected.Add(1)
		return false, false
	}
	f.queue = append(f.queue, j)
	f.s.metrics.JobsAccepted.Add(1)
	f.queuedLocked()
	return true, false
}

// requeueLocked puts jobs back at the head of the queue: they were
// delivered before, or queued before a restart. Caller holds f.mu.
func (f *fleetState) requeueLocked(jobs ...*Job) {
	f.queue = slices.Insert(f.queue, 0, jobs...)
	f.queuedLocked()
}

// close stops admission and leasing, ends the server's janitors, and
// wakes parked pulls so they answer 503. Shutdown calls it first.
func (f *fleetState) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeLocked()
}

// closeLocked is close for a caller that holds f.mu.
func (f *fleetState) closeLocked() {
	if !f.closed {
		f.closed = true
		close(f.s.stop)
		f.wakeLocked()
	}
}

// janitorTick is how often the janitor sweeps lease expiry and node
// liveness: a quarter of the shortest deadline, clamped to [5ms, 1s].
func (f *fleetState) janitorTick() time.Duration {
	return min(max(min(f.s.cfg.LeaseTTL, f.s.cfg.HeartbeatTimeout)/4, 5*time.Millisecond), time.Second)
}

// sweep expires nodes and leases as of now; the janitor runs it every
// janitorTick, and tests drive time through it explicitly.
func (f *fleetState) sweep(now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nodes {
		if n.lost || now.Sub(n.lastSeen) <= f.s.cfg.HeartbeatTimeout {
			continue
		}
		n.lost = true
		f.s.metrics.NodesLost.Add(1)
		f.s.metrics.NodesAlive.Add(-1)
		f.s.cfg.Logger.Warn("node lost: missed heartbeats", "node", n.id, "name", n.name,
			"last_seen", n.lastSeen, "timeout", f.s.cfg.HeartbeatTimeout)
		f.s.event(obs.Event{Kind: evNodeLost, Msg: "missed heartbeats",
			Attrs: map[string]string{"node": n.id, "name": n.name}})
		f.wakeLocked() // a parked pull of the lost node answers 404 now
	}
	// Revoke the leases of lost nodes and the expired ones.
	for jobID, ls := range f.leases {
		kept := ls[:0]
		var from, cause string
		for _, l := range ls {
			switch {
			case f.nodes[l.node].lost:
				from, cause = l.node, "node lost"
			case now.After(l.expiry):
				from, cause = l.node, "lease expired"
			default:
				kept = append(kept, l)
			}
		}
		if len(kept) != len(ls) {
			f.setLeases(jobID, kept)
			f.maybeReassignLocked(jobID, from, cause)
		}
	}
}

// setLeases replaces a job's lease set, dropping the map entry when it
// empties. Caller holds f.mu.
func (f *fleetState) setLeases(jobID string, ls []*jobLease) {
	if len(ls) == 0 {
		delete(f.leases, jobID)
		return
	}
	f.leases[jobID] = ls
}

// maybeReassignLocked requeues a job whose lease was revoked — unless
// another node still holds one (straggler re-offer), the job already
// finished (late first-result win), or the delivery budget is spent.
// Caller holds f.mu.
func (f *fleetState) maybeReassignLocked(jobID, fromNode, cause string) {
	if len(f.leases[jobID]) > 0 {
		return // a second holder is still working on it
	}
	j, ok := f.s.jobs.get(jobID)
	if !ok || j.decided() {
		return
	}
	if j.Attempts() >= f.s.cfg.MaxDeliveries {
		f.failExhaustedLocked(j)
		return
	}
	j.unlease()
	f.requeueLocked(j)
	delete(f.reoffered, jobID)
	f.s.metrics.JobsReassigned.Add(1)
	f.s.persistJob(j)
	f.s.cfg.Logger.Warn("job reassigned", "job", j.ID, "from", fromNode, "cause", cause,
		"attempts", j.Attempts())
	f.s.jobEvent(evJobReassigned, j, cause, map[string]string{"from": fromNode})
}

// failExhaustedLocked terminal-fails a job whose redelivery budget is
// spent. Caller holds f.mu.
func (f *fleetState) failExhaustedLocked(j *Job) {
	delete(f.leases, j.ID)
	delete(f.reoffered, j.ID)
	f.failLocked(j, FailReassign, fmt.Sprintf("delivered %d times without completion (reassign budget exhausted)",
		j.Attempts()), "reassign budget exhausted")
	f.s.cfg.Logger.Error("job failed: reassign budget exhausted", "job", j.ID,
		"attempts", j.Attempts())
}

// failLocked terminal-fails j under reason, journals it and publishes
// job.failed with event as its message. Caller holds f.mu.
func (f *fleetState) failLocked(j *Job, reason FailReason, msg, event string) {
	j.fail(msg)
	f.s.metrics.Fail(reason)
	f.s.persistJob(j)
	f.s.jobEvent(evJobFailed, j, event, map[string]string{"reason": string(reason)})
}

// deliverableLocked reports whether a job taken off the queue may be
// leased: a job decided while waiting is skipped, and one whose
// delivery budget is spent is failed. Caller holds f.mu.
func (f *fleetState) deliverableLocked(j *Job) bool {
	if j.decided() {
		return false
	}
	if j.Attempts() >= f.s.cfg.MaxDeliveries {
		f.failExhaustedLocked(j)
		return false
	}
	return true
}

// nextJobLocked pops the next deliverable job without waiting. Caller
// holds f.mu.
func (f *fleetState) nextJobLocked() *Job {
	defer func() { f.s.metrics.QueueDepth.Store(int64(len(f.queue))) }()
	for len(f.queue) > 0 {
		j := f.queue[0]
		f.queue[0] = nil
		f.queue = f.queue[1:]
		if f.deliverableLocked(j) {
			return j
		}
	}
	return nil
}

// requeueRestored queues journal-rehydrated jobs at startup (before any
// analyzer can pull).
func (f *fleetState) requeueRestored(jobs []*Job) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requeueLocked(jobs...)
}

// workPayload builds the grant for one job: the trace (in memory, or
// the corpus blob after a restart) or the workload the analyzer records
// itself.
func (f *fleetState) workPayload(j *Job) (fleet.WorkView, error) {
	w := fleet.WorkView{
		Job:       j.ID,
		Source:    j.Source(),
		TraceID:   j.TraceID(),
		TraceHash: j.TraceHash(),
		Trace:     j.Trace(),
	}
	if w.Trace != nil {
		return w, nil
	}
	if w.TraceHash != "" && f.s.cfg.Store != nil {
		rc, _, err := f.s.cfg.Store.OpenTrace(w.TraceHash)
		if err == nil {
			data, rerr := io.ReadAll(rc)
			rc.Close()
			if rerr != nil {
				return w, rerr
			}
			w.TraceB64 = base64.StdEncoding.EncodeToString(data)
			return w, nil
		}
	}
	if name, ok := strings.CutPrefix(w.Source, "workload:"); ok {
		w.Workload = name
		w.Seed = j.WorkloadSeed()
		w.SeedTries = f.s.cfg.SeedTries
		w.Recorded = j.setTrace
		return w, nil
	}
	return w, fmt.Errorf("job %s has no deliverable work: trace not in memory or corpus", j.ID)
}

// nodeViews snapshots the registry for GET /v1/nodes, stable order.
func (f *fleetState) nodeViews() []fleet.NodeView {
	f.mu.Lock()
	defer f.mu.Unlock()
	leased := make(map[string]int)
	for _, ls := range f.leases {
		for _, l := range ls {
			leased[l.node]++
		}
	}
	out := make([]fleet.NodeView, 0, len(f.nodes))
	for _, n := range f.nodes {
		state := "alive"
		if n.lost {
			state = "lost"
		}
		nv := fleet.NodeView{
			ID:         n.id,
			Name:       n.name,
			State:      state,
			Leased:     leased[n.id],
			Completed:  n.completed,
			Failed:     n.failed,
			Registered: n.registered.UTC().Format(time.RFC3339Nano),
		}
		if !n.lastSeen.IsZero() {
			nv.LastHeartbeat = n.lastSeen.UTC().Format(time.RFC3339Nano)
		}
		out = append(out, nv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// counts returns (known, alive, leased jobs, pending) for status
// surfaces; pending counts queued jobs delivered before.
func (f *fleetState) counts() (nodes, alive, leased, pending int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	nodes = len(f.nodes)
	for _, n := range f.nodes {
		if !n.lost {
			alive++
		}
	}
	leased = len(f.leases)
	for _, j := range f.queue {
		if j.Attempts() > 0 {
			pending++
		}
	}
	return
}

// writePrometheus renders the per-node leased gauge (only when nodes
// exist — an empty family would fail the exposition linter).
func (f *fleetState) writePrometheus(w io.Writer) {
	views := f.nodeViews()
	if len(views) == 0 {
		return
	}
	name := "wolfd_node_leased"
	fmt.Fprintf(w, "# HELP %s Jobs currently leased, per analyzer node.\n# TYPE %s gauge\n", name, name)
	for _, nv := range views {
		fmt.Fprintf(w, "%s{%s,%s} %d\n", name, obs.Label("node", nv.ID), obs.Label("name", nv.Name), nv.Leased)
	}
}

// register admits an analyzer and hands it the fleet timings. Only a
// coordinator announces its nodes.
func (f *fleetState) register(_ context.Context, req fleet.RegisterRequest) (fleet.RegisterView, int, string) {
	if req.Name == "" {
		req.Name = "analyzer"
	}
	f.mu.Lock()
	f.seq++
	n := &fleetNode{
		id:         fmt.Sprintf("n-%04d", f.seq),
		name:       req.Name,
		registered: time.Now(),
		lastSeen:   time.Now(),
	}
	f.nodes[n.id] = n
	f.mu.Unlock()
	s := f.s
	s.metrics.NodesRegistered.Add(1)
	s.metrics.NodesAlive.Add(1)
	if s.coordinator() {
		s.cfg.Logger.Info("node joined", "node", n.id, "name", n.name)
		s.event(obs.Event{Kind: evNodeJoin, Msg: "node registered",
			Attrs: map[string]string{"node": n.id, "name": n.name}})
	}
	return fleet.RegisterView{
		ID:                     n.id,
		Name:                   n.name,
		HeartbeatMillis:        fleet.ToMillis(s.cfg.HeartbeatInterval),
		HeartbeatTimeoutMillis: fleet.ToMillis(s.cfg.HeartbeatTimeout),
		LeaseTTLMillis:         fleet.ToMillis(s.cfg.LeaseTTL),
		PullHoldMillis:         fleet.ToMillis(f.pullHold()),
	}, http.StatusOK, ""
}

// heartbeat refreshes a node's liveness. 404 for an unknown or lost
// node tells the analyzer to re-register.
func (f *fleetState) heartbeat(node string) (int, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n, known := f.nodes[node]; known && !n.lost {
		n.lastSeen = time.Now()
		return http.StatusOK, ""
	}
	return http.StatusNotFound, "unknown node: re-register"
}

// pull leases one job to the calling node. A pull with nothing to lease
// parks until the queue grows, ctx ends, or the hold (pullHold) runs
// out; every wake re-checks the node and the drain under f.mu before
// leasing. 204 means the hold passed with no work; 404 sends an unknown
// or lost node back to registration; 503 means the server is shutting
// down; -1 means the caller has gone.
func (f *fleetState) pull(ctx context.Context, req fleet.PullRequest) (fleet.WorkView, int, string) {
	hold := time.NewTimer(f.pullHold())
	defer hold.Stop()
	expired := false
	f.mu.Lock()
	for {
		if status, msg := f.refusePullLocked(ctx, req.Node); status != 0 {
			f.mu.Unlock()
			return fleet.WorkView{}, status, msg
		}
		if j := f.nextJobLocked(); j != nil {
			return f.leaseLocked(j, req.Node) // unlocks f.mu
		}
		if expired {
			f.mu.Unlock()
			return fleet.WorkView{}, http.StatusNoContent, ""
		}
		wake := f.wake
		f.parked++
		f.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		case <-hold.C:
			expired = true
		}
		f.mu.Lock()
		f.parked--
	}
}

// refusePullLocked says why a pull may not lease now: 503 once
// Shutdown has begun, -1 when the caller has gone (nothing to answer),
// 404 for an unknown or lost node. It returns 0 for a live node and
// refreshes its liveness — a pull is as alive as a heartbeat. Caller
// holds f.mu.
func (f *fleetState) refusePullLocked(ctx context.Context, node string) (int, string) {
	if f.closed {
		return http.StatusServiceUnavailable, "server shutting down"
	}
	if ctx.Err() != nil {
		return -1, ""
	}
	n, known := f.nodes[node]
	if !known || n.lost {
		return http.StatusNotFound, "unknown node: re-register"
	}
	n.lastSeen = time.Now()
	return 0, ""
}

// drainQueued fails every job still waiting for an analyzer as drained
// (single role).
func (f *fleetState) drainQueued() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range f.queue {
		if !j.decided() {
			f.failLocked(j, FailDrained, "server draining: job was queued but never started", "drained")
			f.s.cfg.Logger.Info("job drained", "job", j.ID, "source", j.Source(), "trace", j.TraceID())
		}
	}
	f.queue = nil
	f.s.metrics.QueueDepth.Store(0)
}

// leaseLocked grants j to node. A job whose work cannot be delivered is
// terminal-failed and the pull answers 204. Caller holds f.mu;
// leaseLocked releases it.
func (f *fleetState) leaseLocked(j *Job, node string) (fleet.WorkView, int, string) {
	s := f.s
	payload, err := f.workPayload(j)
	if err != nil {
		// Undeliverable (e.g. blob deleted from the corpus): terminal-fail
		// rather than spin it through the budget.
		f.failLocked(j, FailError, "undeliverable: "+err.Error(), err.Error())
		f.mu.Unlock()
		return fleet.WorkView{}, http.StatusNoContent, ""
	}
	expiry := time.Now().Add(s.cfg.LeaseTTL)
	attempts := j.leaseTo(node)
	wait := time.Since(j.CreatedAt())
	if attempts == 1 {
		s.metrics.QueueWait.Observe(wait)
	}
	f.leases[j.ID] = append(f.leases[j.ID], &jobLease{node: node, expiry: expiry})
	payload.Attempts = attempts
	payload.LeaseTTLMillis = fleet.ToMillis(s.cfg.LeaseTTL)
	f.mu.Unlock()
	if !s.coordinator() {
		// Not journaled: a restarted single role fails unfinished jobs.
		// Busy until the analyzer's completion, its lease's only end.
		s.metrics.WorkersBusy.Add(1)
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
func (f *fleetState) renew(_ context.Context, req fleet.RenewRequest) (fleet.RenewView, int, string) {
	s := f.s
	f.mu.Lock()
	defer f.mu.Unlock()
	j, found := s.jobs.get(req.Job)
	if !found || j.decided() {
		return fleet.RenewView{}, http.StatusConflict, "lease lost: job finished"
	}
	var l *jobLease
	for _, cand := range f.leases[req.Job] {
		if cand.node == req.Node {
			l = cand
			break
		}
	}
	if l == nil {
		return fleet.RenewView{}, http.StatusConflict, "lease lost: job reassigned"
	}
	if n, known := f.nodes[req.Node]; known && !n.lost {
		n.lastSeen = time.Now()
	}
	l.expiry = time.Now().Add(s.cfg.LeaseTTL)
	l.renewals++
	s.metrics.LeaseRenewals.Add(1)
	if s.coordinator() && l.renewals > s.cfg.MaxRenewals && !f.reoffered[req.Job] && len(f.leases[req.Job]) == 1 {
		f.reoffered[req.Job] = true
		f.requeueLocked(j)
		s.metrics.JobsReassigned.Add(1)
		s.cfg.Logger.Warn("straggler: job re-offered to a second node",
			"job", j.ID, "node", req.Node, "renewals", l.renewals)
		s.jobEvent(evJobReassigned, j, "straggler re-offer",
			map[string]string{"from": req.Node, "renewals": fmt.Sprint(l.renewals)})
	}
	return fleet.RenewView{
		Job:            req.Job,
		LeaseTTLMillis: fleet.ToMillis(s.cfg.LeaseTTL),
		Renewals:       l.renewals,
	}, http.StatusOK, ""
}

// complete accepts a result. First result wins: the job is finished by
// whichever node delivers first — even one whose lease already expired
// (the work is done; discarding it would only waste the redelivery) —
// and later arrivals get "duplicate". The winner claims the job under
// f.mu and records it after releasing it. Unknown jobs are a 404.
func (f *fleetState) complete(ctx context.Context, req fleet.CompleteRequest) (fleet.CompleteView, int, string) {
	s := f.s
	if !s.coordinator() {
		defer s.metrics.WorkersBusy.Add(-1) // the in-process analyzer is free again
	}
	f.mu.Lock()
	j, found := s.jobs.get(req.Job)
	if !found {
		f.mu.Unlock()
		return fleet.CompleteView{}, http.StatusNotFound, "no such job"
	}
	if !j.claim() {
		f.mu.Unlock()
		s.metrics.DuplicateResults.Add(1)
		s.cfg.Logger.Info("duplicate result discarded", "job", j.ID, "node", req.Node)
		return fleet.CompleteView{Job: j.ID, Result: "duplicate"}, http.StatusOK, ""
	}
	// The node may be unknown (lost and swept, or a pre-restart
	// identity); the result still counts.
	if n := f.nodes[req.Node]; n != nil {
		if req.OK {
			n.completed++
		} else {
			n.failed++
		}
	}
	delete(f.leases, j.ID)
	delete(f.reoffered, j.ID)
	if i := slices.Index(f.queue, j); i >= 0 { // the result beat its re-offer
		f.queue = slices.Delete(f.queue, i, i+1)
		f.s.metrics.QueueDepth.Store(int64(len(f.queue)))
	}
	f.mu.Unlock()
	switch {
	case !req.OK:
		s.failResult(j, &req)
	case req.Analysis != nil:
		s.finishLocal(ctx, j, req.Analysis, req.Trace)
	default:
		s.finishRemote(ctx, j, &req)
	}
	s.persistJob(j)
	return fleet.CompleteView{Job: j.ID, Result: "accepted"}, http.StatusOK, ""
}

// failResult fails a job by an analyzer's verdict, counted under the
// reason it carries; unknown reasons count as errors.
func (s *Server) failResult(j *Job, req *fleet.CompleteRequest) {
	msg := req.Error
	if msg == "" {
		msg = "analyzer reported failure"
	}
	reason := FailReason(req.Reason)
	switch reason {
	case FailTimeout, FailPanic, FailWatchdog:
	default:
		reason = FailError
	}
	j.fail(msg)
	s.metrics.Fail(reason)
	attrs := map[string]string{"reason": string(reason)}
	log := s.cfg.Logger.With("job", j.ID, "source", j.Source(), "trace", j.TraceID())
	if s.coordinator() {
		attrs["node"] = req.Node
		log = log.With("node", req.Node)
	}
	log.Warn("analysis failed", "reason", reason, "err", msg)
	s.jobEvent(evJobFailed, j, msg, attrs)
}

// finishLocal records an in-process analyzer's report, handed over by
// pointer, and archives the trace it recorded for a workload job.
// Defects reach the corpus before the job reads done.
func (s *Server) finishLocal(ctx context.Context, j *Job, rep *core.Report, recorded *trace.Trace) {
	if recorded != nil {
		s.archiveTrace(ctx, j, recorded)
	}
	if s.cfg.Store != nil {
		s.recordDefects(ctx, j, j.TraceHash(), store.Summarize(rep))
	}
	elapsed := j.finish(rep)
	s.metrics.observe(rep, elapsed)
	s.cfg.Logger.Info("job done", "job", j.ID, "source", j.Source(), "trace", j.TraceID(),
		"cycles", len(rep.Cycles), "defects", len(rep.Defects), "elapsed", elapsed)
	for _, cr := range rep.Cycles {
		if cr.ReplayMethod == replay.MethodNone || cr.Cycle == nil {
			continue
		}
		s.jobEvent(evReplayVerdict, j, "cycle confirmed by replay", map[string]string{
			"method":      string(cr.ReplayMethod),
			"fingerprint": fingerprint.Short(fingerprint.Of(cr.Cycle)),
		})
	}
	s.jobEvent(evJobDone, j, "", map[string]string{
		"cycles":  strconv.Itoa(len(rep.Cycles)),
		"defects": strconv.Itoa(len(rep.Defects)),
	})
}

// finishRemote records a remote analyzer's wire-form result. A shipped
// trace that fails to decode or validate is not archived; the verdict
// still counts.
func (s *Server) finishRemote(ctx context.Context, j *Job, req *fleet.CompleteRequest) {
	if req.TraceB64 != "" && s.cfg.Store != nil && j.TraceHash() == "" {
		raw, err := base64.StdEncoding.DecodeString(req.TraceB64)
		var tr *trace.Trace
		if err == nil {
			tr, err = trace.ReadBinary(bytes.NewReader(raw))
		}
		if err != nil {
			s.cfg.Logger.Error("shipped trace rejected, not archived", "job", j.ID, "node", req.Node,
				"trace", j.TraceID(), "err", err)
			s.jobEvent(evStoreTrace, j, "shipped trace rejected: "+err.Error(), map[string]string{"node": req.Node})
		} else {
			s.archiveTrace(ctx, j, tr)
		}
	}
	if len(req.Summaries) > 0 {
		s.recordDefects(ctx, j, j.TraceHash(), req.Summaries)
	}
	j.finishRaw(req.Report)
	s.metrics.JobsCompleted.Add(1)
	s.metrics.Analysis.Observe(time.Since(j.CreatedAt()))
	s.cfg.Logger.Info("job done", "job", j.ID, "node", req.Node, "defect_summaries", len(req.Summaries))
	s.jobEvent(evJobDone, j, "completed by node", map[string]string{"node": req.Node})
}

// localCoordinator is the protocol in process, for the single role's
// analyzers: grants and results travel by pointer, and a pull refused
// by the drain stops the analyzer.
type localCoordinator struct {
	f    *fleetState
	stop context.CancelFunc
}

// answered drops a protocol method's refusal message: in process, a
// refusal is its status alone.
func answered[V any](v V, status int, _ string) (V, int, error) { return v, status, nil }

func (c *localCoordinator) Register(ctx context.Context, req fleet.RegisterRequest) (fleet.RegisterView, int, error) {
	return answered(c.f.register(ctx, req))
}

func (c *localCoordinator) Heartbeat(_ context.Context, node string) (int, error) {
	status, _ := c.f.heartbeat(node)
	return status, nil
}

func (c *localCoordinator) Pull(ctx context.Context, req fleet.PullRequest) (fleet.WorkView, int, error) {
	w, status, _ := c.f.pull(ctx, req)
	if status == http.StatusServiceUnavailable {
		c.stop()
	}
	return w, status, nil
}

func (c *localCoordinator) Renew(ctx context.Context, req fleet.RenewRequest) (fleet.RenewView, int, error) {
	return answered(c.f.renew(ctx, req))
}

func (c *localCoordinator) Complete(ctx context.Context, req fleet.CompleteRequest) (fleet.CompleteView, int, error) {
	return answered(c.f.complete(ctx, req))
}

// startAnalyzers runs the single role's Workers in-process analyzers.
// Their leases end only by completion: no janitor expires them and no
// straggler re-offer doubles them, since an in-process analyzer cannot
// be lost apart from the server and its watchdog bounds every run. The
// analyzers log nothing; the server logs each job's start and verdict.
func (s *Server) startAnalyzers() {
	for i := 0; i < s.cfg.Workers; i++ {
		ctx, stop := context.WithCancel(context.Background())
		a := fleet.NewAnalyzerFor(&localCoordinator{f: s.fleet, stop: stop},
			s.analyzerConfig(fmt.Sprintf("local-%d", i+1), slog.New(slog.DiscardHandler)))
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			a.Run(ctx)
		}()
	}
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

// pullWire is pull for a remote node: the grant ships the trace as
// base64 WTRC, with the content address stamped at admission.
func (f *fleetState) pullWire(ctx context.Context, req fleet.PullRequest) (fleet.WorkView, int, string) {
	work, status, msg := f.pull(ctx, req)
	if work.Trace != nil {
		var buf bytes.Buffer
		if err := work.Trace.WriteBinary(&buf); err != nil {
			return work, http.StatusInternalServerError, "encode trace: " + err.Error()
		}
		work.TraceB64 = base64.StdEncoding.EncodeToString(buf.Bytes())
	}
	return work, status, msg
}

// handleNodeList is GET /v1/nodes. It answers in every role so wolfctl
// nodes works uniformly; a single-process wolfd lists none.
func (s *Server) handleNodeList(w http.ResponseWriter, r *http.Request) {
	views := []fleet.NodeView{}
	if s.coordinator() {
		views = s.fleet.nodeViews()
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": views})
}

// handleNodeHeartbeat is POST /v1/nodes/{id}/heartbeat.
func (s *Server) handleNodeHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	if status, msg := s.fleet.heartbeat(r.PathValue("id")); status != http.StatusOK {
		httpError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
