package server

// The lease table against its reference model. FuzzLeaseTableMatchesModel
// drives both with one random operation sequence on a fake clock, in
// both roles, and after every step compares their answers and state and
// checks the scheduling invariants. The Test functions pin single
// behaviours on the same fake clock.

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"wolf/internal/store"
)

// fakeClock is the table's clock in tests: it moves only when stepped.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock            { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) step(d time.Duration) { c.t = c.t.Add(d) }

// leaseModel is the reference the lease table is checked against: a
// plain queue, a lease list and a node map, with no mutex and no time
// but the fake clock's readings.
type leaseModel struct {
	cfg    Config
	queue  []string // job IDs in delivery order
	leases []modelLease
	nodes  map[string]*modelNode
	jobs   map[string]*modelJob
	parked []int        // parked pull IDs not yet woken, in parking order
	woken  map[int]bool // woken pulls that have not pulled again
	wakes  int
	closed bool
	seq    int
}

type modelLease struct {
	job, node string
	expiry    time.Time
	renewals  int
}

type modelNode struct {
	lastSeen, lostAt  time.Time
	lost              bool
	completed, failed int64
}

type modelJob struct {
	attempts int
	done     bool // completed, failed or drained
}

func newLeaseModel(cfg Config) *leaseModel {
	return &leaseModel{cfg: cfg, nodes: map[string]*modelNode{}, jobs: map[string]*modelJob{}, woken: map[int]bool{}}
}

func (m *leaseModel) coord() bool { return m.cfg.Role == RoleCoordinator }

// fill wakes parked pulls until each queued job has one on its way.
func (m *leaseModel) fill(all bool) {
	for n := len(m.parked); n > 0 && (all || len(m.woken) < len(m.queue)); n-- {
		m.woken[m.parked[n-1]] = true
		m.parked = m.parked[:n-1]
		m.wakes++
	}
}

func (m *leaseModel) holders(job string) (held []string) {
	for _, l := range m.leases {
		if l.job == job {
			held = append(held, l.node)
		}
	}
	return held
}

func (m *leaseModel) live(node string, now time.Time) bool {
	n := m.nodes[node]
	if n == nil || n.lost {
		return false
	}
	n.lastSeen = now
	return true
}

func (m *leaseModel) admit(id string) verdict {
	if m.closed {
		return refusedClosed
	}
	if len(m.queue) >= m.cfg.QueueSize {
		return refusedFull
	}
	m.jobs[id] = &modelJob{}
	m.queue = append(m.queue, id)
	m.fill(false)
	return granted
}

func (m *leaseModel) restore(id string, attempts int) (failed bool) {
	m.jobs[id] = &modelJob{attempts: attempts, done: attempts >= m.cfg.MaxDeliveries}
	if !m.jobs[id].done {
		m.queue = append([]string{id}, m.queue...)
		m.fill(false)
	}
	return m.jobs[id].done
}

func (m *leaseModel) register(now time.Time) string {
	m.seq++
	id := fmt.Sprintf("n-%04d", m.seq)
	m.nodes[id] = &modelNode{lastSeen: now}
	return id
}

func (m *leaseModel) pull(pid int, node string, parked, gone, expired bool, now time.Time) (v verdict, job string, attempts int, park bool) {
	if parked && !m.woken[pid] {
		m.parked = slices.DeleteFunc(m.parked, func(p int) bool { return p == pid })
	}
	delete(m.woken, pid)
	switch {
	case m.closed:
		v = refusedClosed
	case gone:
		v = refusedGone
	case !m.live(node, now):
		v = refusedNode
	case len(m.queue) > 0:
		job, m.queue = m.queue[0], m.queue[1:]
		m.jobs[job].attempts++
		m.leases = append(m.leases, modelLease{job: job, node: node, expiry: now.Add(m.cfg.LeaseTTL)})
		return granted, job, m.jobs[job].attempts, false
	case expired:
		v = refusedIdle
	default:
		m.parked, park = append(m.parked, pid), true
	}
	m.fill(false)
	return v, "", 0, park
}

func (m *leaseModel) claim(job string) bool {
	if m.jobs[job].done {
		return false
	}
	m.jobs[job].done = true
	m.leases = slices.DeleteFunc(m.leases, func(l modelLease) bool { return l.job == job })
	m.queue = slices.DeleteFunc(m.queue, func(q string) bool { return q == job })
	return true
}

func (m *leaseModel) renew(job, node string, now time.Time) (verdict, int, bool) {
	if m.jobs[job].done {
		return refusedFinished, 0, false
	}
	i := slices.IndexFunc(m.leases, func(l modelLease) bool { return l.job == job && l.node == node })
	if i < 0 {
		return refusedReassigned, 0, false
	}
	m.live(node, now)
	l := &m.leases[i]
	l.expiry, l.renewals = now.Add(m.cfg.LeaseTTL), l.renewals+1
	re := m.coord() && l.renewals > m.cfg.MaxRenewals && len(m.holders(job)) == 1 &&
		m.jobs[job].attempts < m.cfg.MaxDeliveries && !slices.Contains(m.queue, job)
	if re {
		m.queue = append([]string{job}, m.queue...)
		m.fill(false)
	}
	return granted, l.renewals, re
}

func (m *leaseModel) complete(job, node string, ok bool) bool {
	if !m.claim(job) {
		return false
	}
	if n := m.nodes[node]; n != nil && ok {
		n.completed++
	} else if n != nil {
		n.failed++
	}
	return true
}

func (m *leaseModel) sweep(now time.Time) (lost, reassigned, failed []string) {
	if !m.coord() {
		return
	}
	for _, id := range sortedKeys(m.nodes) {
		switch n := m.nodes[id]; {
		case !n.lost && now.Sub(n.lastSeen) > m.cfg.HeartbeatTimeout:
			n.lost, n.lostAt = true, now
			lost = append(lost, id)
		case n.lost && now.Sub(n.lostAt) >= m.cfg.HeartbeatTimeout:
			delete(m.nodes, id)
		}
	}
	m.fill(len(lost) > 0)
	revoked := map[string]string{} // job -> its last revoked lease, as "node cause"
	var kept []modelLease
	for _, l := range m.leases {
		switch {
		case m.nodes[l.node].lost:
			revoked[l.job] = l.node + " node lost"
		case now.After(l.expiry):
			revoked[l.job] = l.node + " lease expired"
		default:
			kept = append(kept, l)
		}
	}
	m.leases = kept
	var requeue []string
	for _, job := range sortedKeys(revoked) {
		switch {
		case len(m.holders(job)) > 0:
		case m.jobs[job].attempts >= m.cfg.MaxDeliveries:
			m.claim(job)
			failed = append(failed, job)
		default:
			if !slices.Contains(m.queue, job) {
				requeue = append(requeue, job)
			}
			reassigned = append(reassigned, job+" "+revoked[job])
		}
	}
	m.queue = append(requeue, m.queue...)
	m.fill(false)
	return lost, reassigned, failed
}

func (m *leaseModel) close() (drained []string) {
	m.closed = true
	m.fill(true)
	if m.coord() {
		return nil
	}
	drained, m.queue = m.queue, nil
	for _, job := range drained {
		m.jobs[job].done = true
	}
	return drained
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The operations a fuzz input encodes, one (op, arg) byte pair each.
const (
	opAdmit = iota
	opRegister
	opPull     // a new pull by node arg
	opRecheck  // a woken parked pull pulls again
	opExpire   // a parked pull's hold runs out
	opCancel   // a parked pull's client hangs up
	opRenew    // job arg&15 by node arg>>4 (>= 8: its first holder)
	opComplete // ok, same job and node choice
	opFail     // failed, same choice
	opCompleteUnknown
	opSweep // step the clock by (arg%8)*5s, then sweep
	opHeartbeat
	opClose
	opRestore // a restarted job with arg%(MaxDeliveries+1) attempts
	opStep    // step the clock by (arg%8)*5s
	numOps
)

// leaseHeader encodes a fuzz input's first byte: the role and the
// table's bounds.
func leaseHeader(coord bool, queueSize, maxDeliveries, maxRenewals int) byte {
	h := byte(queueSize-1)<<1 | byte(maxDeliveries-1)<<3 | byte(maxRenewals-1)<<5
	if coord {
		h |= 1
	}
	return h
}

// leaseSeeds are the operation sequences of the fleet tests that pin the
// queue order, the queue bound, stragglers and the delivery budget.
var leaseSeeds = map[string][]byte{
	"TestQueueReofferFirst": {leaseHeader(true, 4, 3, 1),
		opRegister, 0, opAdmit, 0, opPull, 0, opAdmit, 0, opSweep, 7, opRegister, 0, opPull, 1, opPull, 1},
	"TestQueueDepthCountsReoffers": {leaseHeader(true, 1, 3, 1),
		opRegister, 0, opAdmit, 0, opPull, 0, opSweep, 7, opAdmit, 0, opComplete, 0x00, opAdmit, 0},
	"TestStragglerReoffer": {leaseHeader(true, 4, 3, 1),
		opRegister, 0, opRegister, 0, opAdmit, 0, opPull, 0, opRenew, 0x80, opRenew, 0x80, opPull, 1,
		opComplete, 0x10, opRenew, 0x00, opComplete, 0x00},
	"TestReassignExhausted": {leaseHeader(true, 4, 2, 1),
		opRegister, 0, opAdmit, 0, opPull, 0, opSweep, 3, opPull, 0, opSweep, 3},
}

func FuzzLeaseTableMatchesModel(f *testing.F) {
	for _, seed := range leaseSeeds {
		f.Add(seed)
		single := slices.Clone(seed)
		single[0] &^= 1
		f.Add(single)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkLeaseOps(t, data) })
}

// harnessPull is one parked pull: its ID in the model and its waiter in
// the table.
type harnessPull struct {
	id   int
	node string
	w    *pullWaiter
}

// checkLeaseOps runs one encoded operation sequence on a table and the
// model and fails at the first disagreement or broken invariant.
func checkLeaseOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	h := data[0]
	cfg := Config{
		QueueSize: 1 + int(h>>1&3), MaxDeliveries: 1 + int(h>>3&3), MaxRenewals: 1 + int(h>>5&1),
		LeaseTTL: 10 * time.Second, HeartbeatTimeout: 30 * time.Second,
	}
	if h&1 == 1 {
		cfg.Role = RoleCoordinator
	}
	clk := newFakeClock()
	tb := newLeaseTable(cfg, clk.now)
	m := newLeaseModel(cfg)
	jobs := map[string]*Job{}
	var ids, nodes []string
	var pulls []*harnessPull
	terminal := map[string]int{}
	seen := map[*pullWaiter]bool{} // waiters seen woken, to count wakes
	nextPull := 0
	nodeAt := func(k int) string {
		if k%(len(nodes)+1) == len(nodes) {
			return "n-9999" // never registered
		}
		return nodes[k%(len(nodes)+1)]
	}
	ended := func(js ...string) {
		for _, j := range js {
			if terminal[j]++; terminal[j] > 1 {
				t.Fatalf("job %s reached a terminal state twice", j)
			}
		}
	}
	agree := func(what string, got, want any) {
		t.Helper()
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Fatalf("%s: table %s, model %s", what, g, w)
		}
	}
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := int(data[i])%numOps, data[i+1]
		step := fmt.Sprintf("step %d (op %d, arg %#x)", i/2, op, arg)
		leasedBefore := leasedJobs(tb)
		completed := ""
		switch op {
		case opAdmit, opRestore:
			id := fmt.Sprintf("j-%06d", len(jobs)+1)
			j := &Job{ID: id, rec: store.JobRecord{ID: id, State: string(StateQueued)}}
			if op == opAdmit {
				v := tb.admit(j)
				agree(step+" admit", v, m.admit(id))
				if v != granted {
					continue
				}
			} else {
				j.rec.Attempts = int(arg) % (cfg.MaxDeliveries + 1)
				failed := tb.restore([]*Job{j})
				agree(step+" restore", len(failed) == 1, m.restore(id, j.rec.Attempts))
				if len(failed) > 0 {
					ended(id)
				}
			}
			jobs[id] = j
			ids = append(ids, id)
		case opRegister:
			id := tb.register("n")
			agree(step+" register", id, m.register(clk.now()))
			nodes = append(nodes, id)
		case opPull, opRecheck, opExpire, opCancel:
			p := &harnessPull{id: nextPull, node: nodeAt(int(arg))}
			parked := op != opPull
			if parked {
				cands := pulls
				if op == opRecheck {
					cands = nil
					for _, c := range pulls {
						if c.w.woken {
							cands = append(cands, c)
						}
					}
				}
				if len(cands) == 0 {
					continue
				}
				p = cands[int(arg)%len(cands)]
				pulls = slices.DeleteFunc(pulls, func(c *harnessPull) bool { return c == p })
			} else {
				nextPull++
			}
			j, attempts, wait, v := tb.pull(p.node, p.w, op == opCancel, op == opExpire)
			mv, mjob, mattempts, mpark := m.pull(p.id, p.node, parked, op == opCancel, op == opExpire, clk.now())
			got := ""
			if j != nil {
				got = j.ID
			}
			agree(step+" pull", fmt.Sprint(v, got, attempts, wait != nil), fmt.Sprint(mv, mjob, mattempts, mpark))
			if wait != nil {
				p.w = wait
				pulls = append(pulls, p)
			}
		case opRenew, opComplete, opFail, opCompleteUnknown:
			if len(ids) == 0 {
				continue
			}
			id := ids[int(arg&15)%len(ids)]
			node := nodeAt(int(arg >> 4))
			if held := m.holders(id); arg>>4 >= 8 && len(held) > 0 {
				node = held[0]
			}
			switch op {
			case opRenew:
				v, n, re := tb.renew(jobs[id], node)
				mv, mn, mre := m.renew(id, node, clk.now())
				agree(step+" renew", fmt.Sprint(v, n, re), fmt.Sprint(mv, mn, mre))
			default:
				if op == opCompleteUnknown {
					node = "n-9999"
				}
				won := tb.complete(jobs[id], node, op != opFail)
				agree(step+" complete", won, m.complete(id, node, op != opFail))
				if won {
					ended(id)
					completed = id
				}
			}
		case opSweep, opStep:
			clk.step(time.Duration(arg%8) * 5 * time.Second)
			if op == opStep {
				continue
			}
			lost, reassigned, failed := tb.sweep(clk.now())
			var tl, tr, tf []string
			for _, n := range lost {
				tl = append(tl, n.id)
			}
			for _, ra := range reassigned {
				tr = append(tr, ra.job.ID+" "+ra.from+" "+ra.cause)
			}
			for _, j := range failed {
				tf = append(tf, j.ID)
			}
			sort.Strings(tl)
			sort.Strings(tr)
			sort.Strings(tf)
			ml, mr, mf := m.sweep(clk.now())
			agree(step+" sweep", fmt.Sprint(tl, tr, tf), fmt.Sprint(ml, mr, mf))
			ended(tf...)
			for _, n := range tb.counts().nodes {
				if n.lost() && clk.now().Sub(n.lostAt) >= cfg.HeartbeatTimeout {
					t.Fatalf("%s: node %s kept %v past its loss", step, n.id, clk.now().Sub(n.lostAt))
				}
			}
		case opHeartbeat:
			node := nodeAt(int(arg))
			agree(step+" heartbeat", tb.heartbeat(node), m.live(node, clk.now()))
		case opClose:
			var drained []string
			for _, j := range tb.close() {
				drained = append(drained, j.ID)
			}
			agree(step+" close", drained, m.close())
			ended(drained...)
		}
		for _, p := range pulls {
			if p.w.woken {
				seen[p.w] = true
			}
		}
		if len(seen) != m.wakes {
			t.Fatalf("%s: table woke %d pulls, model %d", step, len(seen), m.wakes)
		}
		checkLeaseState(t, step, tb, m, ids, jobs, pulls, terminal)
		if cfg.Role != RoleCoordinator {
			for id := range leasedBefore {
				if !leasedJobs(tb)[id] && id != completed {
					t.Fatalf("%s: single-role lease on %s ended without its completion", step, id)
				}
			}
		}
	}
}

// leasedJobs is the IDs of the jobs the table holds a lease on.
func leasedJobs(tb *leaseTable) map[string]bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := map[string]bool{}
	for j := range tb.leases {
		out[j.ID] = true
	}
	return out
}

// checkLeaseState compares the table's state with the model's and checks
// the invariants that hold between any two operations.
func checkLeaseState(t *testing.T, step string, tb *leaseTable, m *leaseModel, ids []string, jobs map[string]*Job,
	pulls []*harnessPull, terminal map[string]int) {
	t.Helper()
	c := tb.counts()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	var queue, leases, mleases, nodes, mnodes []string
	for _, j := range tb.queue {
		queue = append(queue, j.ID)
	}
	for j, ls := range tb.leases {
		for _, l := range ls {
			leases = append(leases, fmt.Sprint(j.ID, l.node, l.renewals, l.expiry.Unix()))
		}
	}
	for _, l := range m.leases {
		mleases = append(mleases, fmt.Sprint(l.job, l.node, l.renewals, l.expiry.Unix()))
	}
	sort.Strings(leases)
	sort.Strings(mleases)
	for _, n := range c.nodes {
		nodes = append(nodes, fmt.Sprint(n.id, n.lost(), n.lastSeen.Unix(), n.completed, n.failed, n.leased))
	}
	for _, id := range sortedKeys(m.nodes) {
		n := m.nodes[id]
		held := 0
		for _, l := range m.leases {
			if l.node == id {
				held++
			}
		}
		mnodes = append(mnodes, fmt.Sprint(id, n.lost, n.lastSeen.Unix(), n.completed, n.failed, held))
	}
	same := func(what string, got, want any) {
		t.Helper()
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Fatalf("%s: %s: table %s, model %s", step, what, g, w)
		}
	}
	same("queue", queue, m.queue)
	same("leases", leases, mleases)
	same("nodes", nodes, mnodes)
	same("closed", tb.closed, m.closed)

	// Wakes: the same pulls are woken, and no job waits while a pull is
	// parked with no wake on its way.
	woken := 0
	for _, p := range pulls {
		select {
		case <-p.w.wake:
			woken++
			same(fmt.Sprint("pull ", p.id, " woken"), true, m.woken[p.id])
		default:
			same(fmt.Sprint("pull ", p.id, " woken"), false, m.woken[p.id])
		}
	}
	same("woken pulls", []int{tb.woken, len(tb.waiters)}, []int{woken, len(pulls) - woken})
	if len(tb.waiters) > 0 && tb.woken < len(tb.queue) {
		t.Fatalf("%s: %d jobs queued, %d pulls parked and only %d woken", step, len(tb.queue), len(tb.waiters), tb.woken)
	}

	// Gauges read the table.
	pending := 0
	for _, j := range tb.queue {
		if j.rec.Attempts > 0 {
			pending++
		}
	}
	busy := 0
	if !tb.coordinator() {
		busy = len(tb.leases)
	}
	same("counts", []int{c.depth, c.pending, c.leased, c.busy}, []int{len(tb.queue), pending, len(tb.leases), busy})

	// Every job is in exactly one place: queued once, leased (and queued
	// only as a coordinator's straggler re-offer), or terminal.
	for _, id := range ids {
		j := jobs[id]
		queued, held := 0, len(tb.leases[j])
		for _, q := range tb.queue {
			if q == j {
				queued++
			}
		}
		switch {
		case terminal[id] == 1:
			if queued > 0 || held > 0 || !j.claimed {
				t.Fatalf("%s: terminal job %s queued %d, leased %d, claimed %v", step, id, queued, held, j.claimed)
			}
		case queued > 1 || queued+held == 0 || held > 2:
			t.Fatalf("%s: job %s queued %d times with %d leases", step, id, queued, held)
		case (held == 2 || queued+held == 2) && !tb.coordinator():
			t.Fatalf("%s: single-role job %s queued %d with %d leases", step, id, queued, held)
		case held == 2 && queued > 0:
			t.Fatalf("%s: job %s re-offered with two leases", step, id)
		}
	}
}

// TestLeaseTableOneWakePerJob: with four pulls parked (the single role's
// four idle analyzers), each admission wakes one of them, the most
// recently parked first; a woken pull that leases nothing passes its
// wake on; close wakes all.
func TestLeaseTableOneWakePerJob(t *testing.T) {
	clk := newFakeClock()
	tb := newLeaseTable(Config{QueueSize: 8, MaxDeliveries: 3, LeaseTTL: time.Minute, HeartbeatTimeout: time.Minute}, clk.now)
	var waits []*pullWaiter
	var nodes []string
	for i := 0; i < 4; i++ {
		nodes = append(nodes, tb.register("local"))
		_, _, wait, v := tb.pull(nodes[i], nil, false, false)
		if wait == nil {
			t.Fatalf("idle pull %d did not park: %q", i, v)
		}
		waits = append(waits, wait)
	}
	wokenSet := func() (out []int) {
		for i, w := range waits {
			select {
			case <-w.wake:
				out = append(out, i)
			default:
			}
		}
		return out
	}
	j1, j2 := &Job{ID: "j-000001"}, &Job{ID: "j-000002"}
	tb.admit(j1)
	if got := wokenSet(); !slices.Equal(got, []int{3}) {
		t.Fatalf("after one admission woken = %v, want [3]", got)
	}
	tb.admit(j2)
	if got := wokenSet(); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("after two admissions woken = %v, want [2 3]", got)
	}
	// Pull 3's client hung up: its wake passes to pull 1.
	if _, _, _, v := tb.pull(nodes[3], waits[3], true, false); v != refusedGone {
		t.Fatalf("gone pull = %q, want %q", v, refusedGone)
	}
	if got := wokenSet(); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("after a gone pull woken = %v, want [1 2 3]", got)
	}
	if j, _, _, _ := tb.pull(nodes[2], waits[2], false, false); j != j1 {
		t.Fatalf("woken pull leased %+v, want %s", j, j1.ID)
	}
	if j, _, _, _ := tb.pull(nodes[1], waits[1], false, false); j != j2 {
		t.Fatalf("woken pull leased %+v, want %s", j, j2.ID)
	}
	tb.close()
	if got := wokenSet(); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("after close woken = %v, want all", got)
	}
}

// TestLeaseTableForgetsLostNodes: a lost node stays listed as lost for
// one HeartbeatTimeout and is forgotten at the first sweep after that;
// its late result still counts, and identities are never reused.
func TestLeaseTableForgetsLostNodes(t *testing.T) {
	clk := newFakeClock()
	tb := newLeaseTable(Config{Role: RoleCoordinator, QueueSize: 8, MaxDeliveries: 3,
		LeaseTTL: time.Hour, HeartbeatTimeout: 30 * time.Second}, clk.now)
	gone, live := tb.register("gone"), tb.register("live")
	j := &Job{ID: "j-000001"}
	tb.admit(j)
	if got, _, _, _ := tb.pull(gone, nil, false, false); got != j {
		t.Fatalf("pull leased %+v, want %s", got, j.ID)
	}
	state := func() map[string]bool {
		out := map[string]bool{}
		for _, n := range tb.counts().nodes {
			out[n.id] = n.lost()
		}
		return out
	}
	clk.step(20 * time.Second)
	tb.heartbeat(live)
	clk.step(11 * time.Second)
	lost, reassigned, _ := tb.sweep(clk.now())
	if len(lost) != 1 || lost[0].id != gone || len(reassigned) != 1 || reassigned[0].job != j {
		t.Fatalf("sweep lost %v reassigned %v, want %s lost and %s reassigned", lost, reassigned, gone, j.ID)
	}
	if got := state(); len(got) != 2 || !got[gone] || got[live] {
		t.Fatalf("nodes = %v, want %s lost and %s alive", got, gone, live)
	}
	clk.step(29 * time.Second)
	tb.heartbeat(live)
	tb.sweep(clk.now())
	if got := state(); !got[gone] {
		t.Fatalf("nodes = %v, want %s still listed lost 29s after its loss", got, gone)
	}
	clk.step(time.Second)
	tb.sweep(clk.now())
	if got := state(); len(got) != 1 || got[live] {
		t.Fatalf("nodes = %v, want only %s alive one timeout after the loss", got, live)
	}
	if tb.heartbeat(gone) {
		t.Fatal("a forgotten node's heartbeat was accepted")
	}
	if !tb.complete(j, gone, true) {
		t.Fatal("a forgotten node's result for a live job was refused")
	}
	if id := tb.register("next"); id != "n-0003" {
		t.Fatalf("next identity = %s, want n-0003", id)
	}
}
