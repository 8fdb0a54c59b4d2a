package server

// The coordinator half of the wolfd fleet (wolfd -role=coordinator).
// Admission, validation and persistence are exactly the single-process
// path; what changes is execution: instead of local workers draining
// the queue, registered analyzer nodes pull jobs over HTTP under
// time-bounded leases (internal/fleet holds the wire types and the
// analyzer side).
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
//   - On restart, journal rehydration re-queues leased-but-unfinished
//     jobs for fresh delivery (the delivery budget survives via the
//     persisted attempt count) instead of failing them like the
//     single-process path does.
//   - A pull with nothing to lease waits at the coordinator for up to
//     HeartbeatTimeout/2 and answers 204 if no work came. Once Shutdown
//     begins no pull leases: parked pulls wake at once with 503, and a
//     job the closing queue hands to one stays pending, neither leased
//     nor failed.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"wolf/internal/fingerprint"
	"wolf/internal/fleet"
	"wolf/internal/obs"
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

// fleetState is the coordinator's mutable fleet bookkeeping. One mutex
// guards all of it — fleet traffic is control-plane (a few requests
// per second per node), not data-plane.
type fleetState struct {
	s *Server

	mu      sync.Mutex
	seq     int
	nodes   map[string]*fleetNode
	pending []*Job // reassigned/rehydrated jobs, served before the queue
	leases  map[string][]*jobLease
	// reoffered marks jobs already re-offered for straggling, so one
	// slow lease triggers at most one extra delivery.
	reoffered map[string]bool
	// wake is closed and replaced whenever parked pulls must re-check:
	// pending grew, a node was lost, or leasing closed.
	wake chan struct{}
	// closed is set when Shutdown begins; no pull leases after it.
	closed bool
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

// offerLocked appends jobs to pending and wakes parked pulls to take
// them. Caller holds f.mu.
func (f *fleetState) offerLocked(jobs ...*Job) {
	f.pending = append(f.pending, jobs...)
	f.wakeLocked()
}

// close stops all leasing and wakes parked pulls so they answer 503.
// Shutdown calls it before closing the queue.
func (f *fleetState) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeLocked()
}

// closeLocked is close for a caller that holds f.mu.
func (f *fleetState) closeLocked() {
	f.closed = true
	f.wakeLocked()
}

// janitorTick is how often lease expiry and node liveness are checked:
// a quarter of the shortest deadline, clamped to [5ms, 1s].
func (f *fleetState) janitorTick() time.Duration {
	d := f.s.cfg.LeaseTTL
	if f.s.cfg.HeartbeatTimeout < d {
		d = f.s.cfg.HeartbeatTimeout
	}
	d /= 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// janitor is the coordinator's reaper goroutine: it expires silent
// nodes and unrenewed leases until shutdown.
func (f *fleetState) janitor() {
	defer f.s.wg.Done()
	tick := time.NewTicker(f.janitorTick())
	defer tick.Stop()
	for {
		select {
		case <-f.s.streamStop:
			return
		case <-tick.C:
			f.sweep(time.Now())
		}
	}
}

// sweep expires nodes and leases as of now. Exposed separately from
// the janitor so tests can drive time explicitly.
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
		for jobID, ls := range f.leases {
			kept := ls[:0]
			revoked := false
			for _, l := range ls {
				if l.node == n.id {
					revoked = true
					continue
				}
				kept = append(kept, l)
			}
			if revoked {
				f.setLeases(jobID, kept)
				f.maybeReassignLocked(jobID, n.id, "node lost")
			}
		}
	}
	for jobID, ls := range f.leases {
		kept := ls[:0]
		var from string
		for _, l := range ls {
			if now.After(l.expiry) {
				from = l.node
				continue
			}
			kept = append(kept, l)
		}
		if len(kept) != len(ls) {
			f.setLeases(jobID, kept)
			f.maybeReassignLocked(jobID, from, "lease expired")
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
	if !ok || j.terminal() {
		return
	}
	if j.Attempts() >= f.s.cfg.MaxDeliveries {
		f.failExhaustedLocked(j)
		return
	}
	j.unlease()
	f.offerLocked(j)
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
	j.fail(fmt.Sprintf("delivered %d times without completion (reassign budget exhausted)",
		j.Attempts()))
	f.s.metrics.Fail(FailReassign)
	delete(f.leases, j.ID)
	delete(f.reoffered, j.ID)
	f.s.persistJob(j)
	f.s.cfg.Logger.Error("job failed: reassign budget exhausted", "job", j.ID,
		"attempts", j.Attempts())
	f.s.jobEvent(evJobFailed, j, "reassign budget exhausted",
		map[string]string{"reason": string(FailReassign)})
}

// deliverableLocked reports whether a job taken off pending or the
// queue may be leased: jobs that reached a terminal state while waiting
// (shed, drained, exhausted) are skipped, and one whose delivery budget
// is spent is failed. Caller holds f.mu.
func (f *fleetState) deliverableLocked(j *Job) bool {
	if j.terminal() {
		return false
	}
	if j.Attempts() >= f.s.cfg.MaxDeliveries {
		f.failExhaustedLocked(j)
		return false
	}
	return true
}

// nextJobLocked pops the next deliverable job without waiting:
// reassigned/rehydrated work first, then the admission queue. Caller
// holds f.mu.
func (f *fleetState) nextJobLocked() *Job {
	for len(f.pending) > 0 {
		j := f.pending[0]
		f.pending = f.pending[1:]
		if f.deliverableLocked(j) {
			return j
		}
	}
	for {
		select {
		case j := <-f.s.queue:
			if j == nil {
				return nil // queue closed: draining
			}
			f.s.metrics.QueueDepth.Add(-1)
			if f.deliverableLocked(j) {
				return j
			}
		default:
			return nil
		}
	}
}

// requeueRestored pushes journal-rehydrated jobs into the pending list
// at startup (before any analyzer can pull).
func (f *fleetState) requeueRestored(jobs []*Job) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offerLocked(jobs...)
}

// workPayload builds the grant for one job: the trace blob (from
// memory, or the corpus after a restart) or the workload the analyzer
// records itself.
func (f *fleetState) workPayload(j *Job) (fleet.WorkView, error) {
	v := j.view()
	w := fleet.WorkView{
		Job:       j.ID,
		Source:    v.Source,
		TraceID:   v.Trace,
		TraceHash: v.TraceHash,
	}
	if tr := j.Trace(); tr != nil {
		hash, data, err := store.HashTrace(tr)
		if err != nil {
			return w, err
		}
		w.TraceB64 = base64.StdEncoding.EncodeToString(data)
		w.TraceHash = hash
		return w, nil
	}
	if v.TraceHash != "" && f.s.cfg.Store != nil {
		rc, _, err := f.s.cfg.Store.OpenTrace(v.TraceHash)
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
	if name, ok := strings.CutPrefix(v.Source, "workload:"); ok {
		w.Workload = name
		w.Seed = j.WorkloadSeed()
		w.SeedTries = f.s.cfg.SeedTries
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
// surfaces.
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
	pending = len(f.pending)
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

// requireFleet guards the coordinator-only endpoints.
func (s *Server) requireFleet(w http.ResponseWriter) (*fleetState, bool) {
	if s.fleet == nil {
		httpError(w, http.StatusServiceUnavailable,
			"not a coordinator: start wolfd with -role=coordinator")
		return nil, false
	}
	return s.fleet, true
}

// handleNodeRegister is POST /v1/nodes: admit an analyzer and hand it
// the fleet timings.
func (s *Server) handleNodeRegister(w http.ResponseWriter, r *http.Request) {
	f, ok := s.requireFleet(w)
	if !ok {
		return
	}
	var req fleet.RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad register request: "+err.Error())
		return
	}
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
	s.metrics.NodesRegistered.Add(1)
	s.metrics.NodesAlive.Add(1)
	s.cfg.Logger.Info("node joined", "node", n.id, "name", n.name)
	s.event(obs.Event{Kind: evNodeJoin, Msg: "node registered",
		Attrs: map[string]string{"node": n.id, "name": n.name}})
	writeJSON(w, http.StatusOK, fleet.RegisterView{
		ID:                     n.id,
		Name:                   n.name,
		HeartbeatMillis:        fleet.ToMillis(s.cfg.HeartbeatInterval),
		HeartbeatTimeoutMillis: fleet.ToMillis(s.cfg.HeartbeatTimeout),
		LeaseTTLMillis:         fleet.ToMillis(s.cfg.LeaseTTL),
		PullHoldMillis:         fleet.ToMillis(f.pullHold()),
	})
}

// handleNodeList is GET /v1/nodes. It answers in every role so wolfctl
// nodes works uniformly; a single-process wolfd just has none.
func (s *Server) handleNodeList(w http.ResponseWriter, r *http.Request) {
	views := []fleet.NodeView{}
	if s.fleet != nil {
		views = s.fleet.nodeViews()
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": views})
}

// handleNodeHeartbeat is POST /v1/nodes/{id}/heartbeat. 404 for an
// unknown or lost node tells the analyzer to re-register.
func (s *Server) handleNodeHeartbeat(w http.ResponseWriter, r *http.Request) {
	f, ok := s.requireFleet(w)
	if !ok {
		return
	}
	f.mu.Lock()
	n, known := f.nodes[r.PathValue("id")]
	if known && !n.lost {
		n.lastSeen = time.Now()
	} else {
		known = false
	}
	f.mu.Unlock()
	if !known {
		httpError(w, http.StatusNotFound, "unknown node: re-register")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleWorkPull is POST /v1/work/pull: lease one job to the calling
// node. A pull with nothing to lease parks until work arrives (from the
// admission queue or pending), the client hangs up, or the hold
// (pullHold) runs out; every wake re-checks the node and the drain
// under f.mu before leasing. 204 means the hold passed with no work;
// 404 sends an unknown or lost node back to registration; 503 means
// the coordinator is shutting down.
func (s *Server) handleWorkPull(w http.ResponseWriter, r *http.Request) {
	f, ok := s.requireFleet(w)
	if !ok {
		return
	}
	var req fleet.PullRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad pull request: "+err.Error())
		return
	}
	// Read to EOF: only then does net/http watch the connection, so a
	// client that hangs up a parked pull ends its context.
	io.Copy(io.Discard, body)
	ctx := r.Context()
	hold := time.NewTimer(f.pullHold())
	defer hold.Stop()
	var (
		handed  *Job // received from the queue while parked
		expired bool
	)
	f.mu.Lock()
	for {
		status, msg := f.refusePullLocked(ctx, req.Node)
		if status != 0 {
			if handed != nil {
				// Not ours to lease: first in line for the next pull.
				f.pending = append([]*Job{handed}, f.pending...)
				f.wakeLocked()
			}
			f.mu.Unlock()
			if status > 0 {
				httpError(w, status, msg)
			}
			return
		}
		j := handed
		handed = nil
		if j == nil || !f.deliverableLocked(j) {
			j = f.nextJobLocked()
		}
		if j != nil {
			f.leaseLocked(w, j, req.Node) // unlocks f.mu
			return
		}
		if expired {
			f.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		wake := f.wake
		f.parked++
		f.mu.Unlock()
		select {
		case handed = <-s.queue:
			if handed != nil {
				s.metrics.QueueDepth.Add(-1)
			}
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
// Shutdown has begun, -1 when the client has gone (nothing to answer),
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

// leaseLocked grants j to node and writes the grant. A job whose work
// cannot be delivered is terminal-failed and the pull answers 204.
// Caller holds f.mu; leaseLocked releases it.
func (f *fleetState) leaseLocked(w http.ResponseWriter, j *Job, node string) {
	s := f.s
	payload, err := f.workPayload(j)
	if err != nil {
		// Undeliverable (e.g. blob deleted from the corpus): terminal-fail
		// rather than spin it through the budget.
		j.fail("undeliverable: " + err.Error())
		s.metrics.Fail(FailError)
		s.persistJob(j)
		s.jobEvent(evJobFailed, j, err.Error(), map[string]string{"reason": string(FailError)})
		f.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	expiry := time.Now().Add(s.cfg.LeaseTTL)
	attempts := j.leaseTo(node, expiry)
	if attempts == 1 {
		s.metrics.QueueWait.Observe(time.Since(j.CreatedAt()))
	}
	f.leases[j.ID] = append(f.leases[j.ID], &jobLease{node: node, expiry: expiry})
	payload.Attempts = attempts
	payload.LeaseTTLMillis = fleet.ToMillis(s.cfg.LeaseTTL)
	f.mu.Unlock()
	s.persistJob(j)
	s.cfg.Logger.Info("job leased", "job", j.ID, "node", node, "attempts", attempts)
	s.jobEvent(evJobStarted, j, "leased to node",
		map[string]string{"node": node, "attempts": fmt.Sprint(attempts)})
	writeJSON(w, http.StatusOK, payload)
}

// handleWorkRenew is POST /v1/work/renew: extend a lease. 409 means
// the lease is gone (expired, reassigned, or the job finished) and the
// analyzer must abandon the run. Renewing past MaxRenewals flags the
// holder as a straggler and re-offers the job to a second node.
func (s *Server) handleWorkRenew(w http.ResponseWriter, r *http.Request) {
	f, ok := s.requireFleet(w)
	if !ok {
		return
	}
	var req fleet.RenewRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad renew request: "+err.Error())
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	j, found := s.jobs.get(req.Job)
	if !found || j.terminal() {
		httpError(w, http.StatusConflict, "lease lost: job finished")
		return
	}
	var l *jobLease
	for _, cand := range f.leases[req.Job] {
		if cand.node == req.Node {
			l = cand
			break
		}
	}
	if l == nil {
		httpError(w, http.StatusConflict, "lease lost: job reassigned")
		return
	}
	if n, known := f.nodes[req.Node]; known && !n.lost {
		n.lastSeen = time.Now()
	}
	l.expiry = time.Now().Add(s.cfg.LeaseTTL)
	l.renewals++
	j.setLeaseExpiry(l.expiry)
	s.metrics.LeaseRenewals.Add(1)
	if l.renewals > s.cfg.MaxRenewals && !f.reoffered[req.Job] && len(f.leases[req.Job]) == 1 {
		f.reoffered[req.Job] = true
		f.offerLocked(j)
		s.metrics.JobsReassigned.Add(1)
		s.cfg.Logger.Warn("straggler: job re-offered to a second node",
			"job", j.ID, "node", req.Node, "renewals", l.renewals)
		s.jobEvent(evJobReassigned, j, "straggler re-offer",
			map[string]string{"from": req.Node, "renewals": fmt.Sprint(l.renewals)})
	}
	writeJSON(w, http.StatusOK, fleet.RenewView{
		Job:            req.Job,
		LeaseTTLMillis: fleet.ToMillis(s.cfg.LeaseTTL),
		Renewals:       l.renewals,
	})
}

// handleWorkComplete is POST /v1/work/complete: accept a result.
// First result wins: the job is finished by whichever node delivers
// first — even one whose lease already expired (the work is done;
// discarding it would only waste the redelivery) — and later arrivals
// get "duplicate". Unknown jobs are a 404.
func (s *Server) handleWorkComplete(w http.ResponseWriter, r *http.Request) {
	f, ok := s.requireFleet(w)
	if !ok {
		return
	}
	var req fleet.CompleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad complete request: "+err.Error())
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	j, found := s.jobs.get(req.Job)
	if !found {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.terminal() {
		s.metrics.DuplicateResults.Add(1)
		s.cfg.Logger.Info("duplicate result discarded", "job", j.ID, "node", req.Node)
		writeJSON(w, http.StatusOK, fleet.CompleteView{Job: j.ID, Result: "duplicate"})
		return
	}
	node := f.nodes[req.Node] // may be nil: lost+swept or pre-restart identity; result still counts
	if !req.OK {
		msg := req.Error
		if msg == "" {
			msg = "analyzer reported failure"
		}
		j.fail(msg)
		s.metrics.Fail(FailError)
		if node != nil {
			node.failed++
		}
		s.cfg.Logger.Warn("remote analysis failed", "job", j.ID, "node", req.Node, "err", msg)
		s.jobEvent(evJobFailed, j, msg, map[string]string{"reason": string(FailError), "node": req.Node})
	} else {
		s.acceptResultLocked(r.Context(), j, node, &req)
	}
	delete(f.leases, j.ID)
	delete(f.reoffered, j.ID)
	s.persistJob(j)
	writeJSON(w, http.StatusOK, fleet.CompleteView{Job: j.ID, Result: "accepted"})
}

// acceptResultLocked folds a winning remote result into the job, the
// corpus and the metrics. Caller holds f.mu.
func (s *Server) acceptResultLocked(ctx context.Context, j *Job, node *fleetNode, req *fleet.CompleteRequest) {
	// Workload jobs ship the trace they recorded; archive it so the
	// corpus holds what was analyzed, exactly like the local path. A
	// shipped trace that fails to decode or validate is not archived;
	// the verdict still counts.
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
	if s.cfg.Store != nil && len(req.Summaries) > 0 {
		updated, err := s.cfg.Store.RecordSummaries(ctx, j.TraceHash(), req.Summaries, j.Source(), time.Now())
		if err != nil {
			s.cfg.Logger.Error("record remote defects", "job", j.ID, "err", err)
		}
		for _, fp := range updated {
			s.cfg.Logger.Info("defect recorded", "job", j.ID, "trace", j.TraceID(),
				"fingerprint", fingerprint.Short(fp))
			s.event(obs.Event{Kind: evStoreDefect, Job: j.ID, Trace: j.TraceID(),
				Msg: "defect recorded", Attrs: map[string]string{"fingerprint": fingerprint.Short(fp)}})
		}
	}
	j.finishRaw(req.Report)
	s.metrics.JobsCompleted.Add(1)
	s.metrics.Analysis.Observe(time.Since(j.CreatedAt()))
	if node != nil {
		node.completed++
	}
	s.cfg.Logger.Info("job done", "job", j.ID, "node", req.Node, "defect_summaries", len(req.Summaries))
	s.jobEvent(evJobDone, j, "completed by node", map[string]string{"node": req.Node})
}
