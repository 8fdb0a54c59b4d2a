package server

// The lease table: every job waiting for an analyzer, every registered
// node and every live lease, under one mutex. It is a state machine
// with an injected clock and no I/O. Each operation (admit, register,
// heartbeat, pull, renew, complete, sweep, close, restore) moves the
// table to its next state and returns what happened: a verdict, the
// jobs reassigned or claimed for failure, the nodes lost. The server (fleet.go) turns that
// into status codes, logs, events, journal records and counters.
// FuzzLeaseTableMatchesModel checks the table against a reference model.
//
// Failure rules, in one place. The first four are a coordinator's: a
// single-role lease ends only by completion, since an in-process
// analyzer cannot be lost apart from the server and its watchdog bounds
// every run.
//
//   - A node silent past HeartbeatTimeout is marked lost; every lease it
//     holds is revoked and the jobs reassigned. A lost node is forgotten
//     at the first sweep one HeartbeatTimeout after its loss.
//   - A lease that expires unrenewed is revoked the same way.
//   - Reassignment is bounded: a job delivered MaxDeliveries times
//     without a result is claimed for failure ("reassign-exhausted"),
//     here or when a restart restores it, so no queued job is spent.
//   - A lease renewed more than MaxRenewals times marks its holder a
//     straggler: while the delivery budget allows and no second holder
//     or re-offer exists, the job is re-offered to a second node and
//     the first keeps running.
//   - Admissions join the queue's tail. Reassigned, re-offered and
//     restored jobs join its head, the jobs of one sweep in ID order.
//     QueueSize refuses admissions only.
//   - First result wins: complete claims the job for whoever sends the
//     result, even from an expired lease or a forgotten node, and drops
//     its leases and any queued re-offer. Later results are duplicates.
//   - A pull with nothing to lease parks. A job joining the queue wakes
//     one parked pull, the most recently parked; close and node loss
//     wake them all; a woken pull that leases nothing passes its wake on.
//   - After close no job is admitted and no pull leases. In the single
//     role the queued jobs are claimed for draining; a coordinator's
//     stay queued.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// verdict is a table operation's answer: granted, or why not in the
// words the wire uses; answer maps it to a status.
type verdict string

const (
	granted           verdict = ""
	refusedClosed     verdict = "server shutting down"
	refusedFull       verdict = "queue full"
	refusedNode       verdict = "unknown node: re-register"
	refusedGone       verdict = "client gone"
	refusedIdle       verdict = "nothing to lease"
	refusedFinished   verdict = "lease lost: job finished"
	refusedReassigned verdict = "lease lost: job reassigned"
)

// fleetNode is one registered analyzer.
type fleetNode struct {
	id, name   string
	registered time.Time
	lastSeen   time.Time
	// lostAt is when a sweep declared the node lost; zero while alive.
	lostAt    time.Time
	completed int64
	failed    int64
	// leased is the node's live leases, filled in by counts.
	leased int
}

func (n *fleetNode) lost() bool { return !n.lostAt.IsZero() }

// jobLease is one live grant of a job to a node. A job normally has
// one; a straggler re-offer adds a second.
type jobLease struct {
	node     string
	expiry   time.Time
	renewals int
}

// pullWaiter is one parked pull; the table closes wake to send it back
// to pull again.
type pullWaiter struct {
	wake  chan struct{}
	woken bool
}

// leaseTable is the job queue with its node and lease bookkeeping.
type leaseTable struct {
	cfg Config
	now func() time.Time

	mu    sync.Mutex
	seq   int
	nodes map[string]*fleetNode
	// queue is every job waiting for a lease, in delivery order.
	queue  []*Job
	leases map[*Job][]*jobLease
	// waiters are the parked pulls not yet woken, in parking order; woken
	// counts the woken ones that have not pulled again.
	waiters []*pullWaiter
	woken   int
	closed  bool
}

func newLeaseTable(cfg Config, now func() time.Time) *leaseTable {
	return &leaseTable{
		cfg:    cfg,
		now:    now,
		nodes:  make(map[string]*fleetNode),
		leases: make(map[*Job][]*jobLease),
	}
}

func (t *leaseTable) coordinator() bool { return t.cfg.Role == RoleCoordinator }

// draining reports whether close has begun.
func (t *leaseTable) draining() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// queuedLocked wakes parked pulls until every queued job has a woken
// pull on its way or none is parked. Caller holds t.mu.
func (t *leaseTable) queuedLocked() {
	for t.woken < len(t.queue) && len(t.waiters) > 0 {
		t.wakeLocked()
	}
}

// wakeLocked wakes the most recently parked pull: its analyzer finished
// work last, so its goroutines and connection are the warmest. Caller
// holds t.mu.
func (t *leaseTable) wakeLocked() {
	w := t.waiters[len(t.waiters)-1]
	t.waiters = t.waiters[:len(t.waiters)-1]
	w.woken = true
	t.woken++
	close(w.wake)
}

// requeueLocked puts jobs back at the head of the queue. Caller holds
// t.mu.
func (t *leaseTable) requeueLocked(jobs ...*Job) {
	t.queue = slices.Insert(t.queue, 0, jobs...)
	t.queuedLocked()
}

// admit queues a new job at the tail, unless the table is closed or
// QueueSize jobs already wait.
func (t *leaseTable) admit(j *Job) verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.closed:
		return refusedClosed
	case len(t.queue) >= t.cfg.QueueSize:
		return refusedFull
	}
	t.queue = append(t.queue, j)
	t.queuedLocked()
	return granted
}

// restore queues jobs rehydrated after a coordinator restart at the
// head, before any analyzer can pull. The ones whose delivery budget is
// spent are claimed instead and returned, for the server to fail.
func (t *leaseTable) restore(jobs []*Job) (failed []*Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var queued []*Job
	for _, j := range jobs {
		if j.Attempts() < t.cfg.MaxDeliveries {
			queued = append(queued, j)
		} else if t.claimLocked(j) {
			failed = append(failed, j)
		}
	}
	t.requeueLocked(queued...)
	return failed
}

// register adds a node and returns its identity.
func (t *leaseTable) register(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	now := t.now()
	n := &fleetNode{id: fmt.Sprintf("n-%04d", t.seq), name: name, registered: now, lastSeen: now}
	t.nodes[n.id] = n
	return n.id
}

// heartbeat refreshes a node's liveness; false for an unknown or lost
// node, which must re-register.
func (t *leaseTable) heartbeat(node string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seenLocked(node)
}

// seenLocked refreshes node's liveness if it is live, and reports
// whether it is. Caller holds t.mu.
func (t *leaseTable) seenLocked(node string) bool {
	n := t.nodes[node]
	if n == nil || n.lost() {
		return false
	}
	n.lastSeen = t.now()
	return true
}

// pull leases the next job to node and returns it with its delivery
// count, or a waiter to park on before pulling again, or neither and a
// refusal; a pull is as alive as a heartbeat. w is the waiter the caller
// parked on before, nil at first; gone and expired say the client hung
// up or the hold passed.
func (t *leaseTable) pull(node string, w *pullWaiter, gone, expired bool) (job *Job, attempts int, wait *pullWaiter, v verdict) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w != nil {
		if w.woken {
			t.woken--
		} else if i := slices.Index(t.waiters, w); i >= 0 {
			t.waiters = slices.Delete(t.waiters, i, i+1)
		}
	}
	switch {
	case t.closed:
		v = refusedClosed
	case gone:
		v = refusedGone
	case !t.seenLocked(node):
		v = refusedNode
	case len(t.queue) > 0:
		job = t.queue[0]
		t.queue[0] = nil
		t.queue = t.queue[1:]
		now := t.now()
		t.leases[job] = append(t.leases[job], &jobLease{node: node, expiry: now.Add(t.cfg.LeaseTTL)})
		return job, job.leaseTo(node, now), nil, granted
	case expired:
		v = refusedIdle
	default:
		wait = &pullWaiter{wake: make(chan struct{})}
		t.waiters = append(t.waiters, wait)
	}
	t.queuedLocked() // a woken pull that leases nothing passes its wake on
	return nil, 0, wait, v
}

// claimLocked decides j's outcome for one caller, dropping its leases
// and any queued re-offer; false means it was decided before. Caller
// holds t.mu.
func (t *leaseTable) claimLocked(j *Job) bool {
	if !j.claim() {
		return false
	}
	delete(t.leases, j)
	if i := slices.Index(t.queue, j); i >= 0 {
		t.queue = slices.Delete(t.queue, i, i+1)
	}
	return true
}

// renew extends node's lease on j (nil for an unknown job) and returns
// its renewal count, and whether the job was re-offered as a straggler.
// A job neither leased nor queued is decided.
func (t *leaseTable) renew(j *Job, node string) (v verdict, renewals int, reoffered bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := t.leases[j]
	i := slices.IndexFunc(ls, func(l *jobLease) bool { return l.node == node })
	switch {
	case i >= 0:
	case len(ls) == 0 && !slices.Contains(t.queue, j):
		return refusedFinished, 0, false
	default:
		return refusedReassigned, 0, false
	}
	t.seenLocked(node)
	l := ls[i]
	l.expiry = t.now().Add(t.cfg.LeaseTTL)
	l.renewals++
	if t.coordinator() && l.renewals > t.cfg.MaxRenewals && len(ls) == 1 &&
		j.Attempts() < t.cfg.MaxDeliveries && !slices.Contains(t.queue, j) {
		t.requeueLocked(j)
		reoffered = true
	}
	return granted, l.renewals, reoffered
}

// complete claims j for a result from node and counts it on the node
// if the node is still known. It reports false for a duplicate.
func (t *leaseTable) complete(j *Job, node string, ok bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.claimLocked(j) {
		return false
	}
	if n := t.nodes[node]; n != nil {
		if ok {
			n.completed++
		} else {
			n.failed++
		}
	}
	return true
}

// reassignment is one job whose last lease was revoked, from node, for
// cause.
type reassignment struct {
	job         *Job
	from, cause string
}

// sweep expires nodes and leases as of now and returns the nodes it
// declared lost, the jobs it requeued, and the jobs whose delivery
// budget is spent, claimed for the server to fail. In the single role
// it changes nothing.
func (t *leaseTable) sweep(now time.Time) (lost []fleetNode, reassigned []reassignment, failed []*Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.coordinator() {
		return
	}
	for id, n := range t.nodes {
		switch {
		case !n.lost() && now.Sub(n.lastSeen) > t.cfg.HeartbeatTimeout:
			n.lostAt = now
			lost = append(lost, *n)
		case n.lost() && now.Sub(n.lostAt) >= t.cfg.HeartbeatTimeout:
			delete(t.nodes, id) // its loss revoked its leases
		}
	}
	if len(lost) > 0 { // a parked pull of a lost node answers 404 now
		for len(t.waiters) > 0 {
			t.wakeLocked()
		}
	}
	var requeued []*Job
	for j, ls := range t.leases {
		kept := ls[:0]
		ra := reassignment{job: j}
		for _, l := range ls {
			switch {
			case t.nodes[l.node].lost():
				ra.from, ra.cause = l.node, "node lost"
			case now.After(l.expiry):
				ra.from, ra.cause = l.node, "lease expired"
			default:
				kept = append(kept, l)
			}
		}
		switch {
		case len(kept) == len(ls):
		case len(kept) > 0: // a second holder is still working on it
			t.leases[j] = kept
		case j.Attempts() >= t.cfg.MaxDeliveries:
			t.claimLocked(j)
			failed = append(failed, j)
		default:
			delete(t.leases, j)
			j.unlease()
			if !slices.Contains(t.queue, j) { // else its re-offer still waits
				requeued = append(requeued, j)
			}
			reassigned = append(reassigned, ra)
		}
	}
	slices.SortFunc(requeued, func(a, b *Job) int { return strings.Compare(a.ID, b.ID) })
	t.requeueLocked(requeued...)
	return
}

// close stops admission and leasing and wakes every parked pull. In the
// single role it claims the queued jobs and returns them, for the
// server to fail as drained.
func (t *leaseTable) close() []*Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closeLocked()
}

// closeLocked is close for a caller that holds t.mu.
func (t *leaseTable) closeLocked() []*Job {
	t.closed = true
	for len(t.waiters) > 0 {
		t.wakeLocked()
	}
	if t.coordinator() {
		return nil
	}
	drained := t.queue
	t.queue = nil
	for _, j := range drained {
		t.claimLocked(j)
	}
	return drained
}

// tableCounts is what the status surfaces read from the table: the
// nodes in ID order with their live leases and how many are alive, the
// jobs leased, queued (depth) and queued after an earlier delivery
// (pending), and the jobs the single role's in-process analyzers hold
// (busy).
type tableCounts struct {
	nodes                               []fleetNode
	alive, leased, depth, pending, busy int
}

func (t *leaseTable) counts() (c tableCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	leased := make(map[string]int)
	for _, ls := range t.leases {
		for _, l := range ls {
			leased[l.node]++
		}
	}
	for _, n := range t.nodes {
		row := *n
		row.leased = leased[n.id]
		c.nodes = append(c.nodes, row)
		if !n.lost() {
			c.alive++
		}
	}
	sort.Slice(c.nodes, func(i, j int) bool { return c.nodes[i].id < c.nodes[j].id })
	c.leased = len(t.leases)
	if !t.coordinator() {
		c.busy = c.leased
	}
	c.depth = len(t.queue)
	for _, j := range t.queue {
		if j.Attempts() > 0 {
			c.pending++
		}
	}
	return c
}
