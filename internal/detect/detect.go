// Package detect implements iGoodLock-style cycle detection over the
// lock dependency relation Dσ — the detection half of WOLF's Extended
// Dynamic Cycle Detector (Section 3.1/3.2 of the paper).
//
// A potential deadlock is a cycle θ = {η1 … ηn} of Dσ tuples where
//
//   - lock(ηi) ∈ lockset(ηi+1) for every consecutive pair, and
//     lock(ηn) ∈ lockset(η1): every thread waits for a lock held by the
//     next;
//   - locksets are pairwise disjoint (no guard lock) and all threads are
//     distinct (each thread contributes one edge).
//
// One search finds them: a LockGraph grown tuple by tuple, which finds
// each cycle once, when its last-arriving tuple is added. Cycles are
// canonicalized so each set of tuples is reported once: the first
// tuple belongs to the lexicographically smallest thread in the cycle.
package detect

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"wolf/internal/obs"
	"wolf/internal/trace"
)

// DefaultMaxLength bounds cycle length (number of threads involved) when
// a Config leaves it zero. Deadlocks among more than a handful of threads
// are vanishingly rare in practice.
const DefaultMaxLength = 4

// Cycle is one potential deadlock: Tuples[i+1] holds the lock Tuples[i]
// is acquiring (cyclically).
type Cycle struct {
	Tuples []*trace.Tuple
}

// Threads returns the names of the threads in the cycle, in cycle order.
func (c *Cycle) Threads() []string {
	out := make([]string, len(c.Tuples))
	for i, tp := range c.Tuples {
		out[i] = tp.Thread
	}
	return out
}

// Sites returns the source locations of the deadlocking acquisitions, in
// cycle order.
func (c *Cycle) Sites() []string {
	out := make([]string, len(c.Tuples))
	for i, tp := range c.Tuples {
		out[i] = tp.Site
	}
	return out
}

// Signature is the canonical defect identity of the cycle: the sorted
// source locations of its deadlocking acquisitions. The paper counts
// defects by these signatures (Section 4.3): two cycles whose
// acquisitions come from the same source locations are one defect.
func (c *Cycle) Signature() string {
	sites := c.Sites()
	sort.Strings(sites)
	return strings.Join(sites, "+")
}

// String renders the cycle as thread:lock@site waiting chains.
func (c *Cycle) String() string {
	var parts []string
	for _, tp := range c.Tuples {
		parts = append(parts, fmt.Sprintf("%s holds{%s} wants %s@%s",
			tp.Thread, strings.Join(tp.LockNames(), ","), tp.Lock, tp.Site))
	}
	return "{" + strings.Join(parts, " | ") + "}"
}

// AvgStackDepth is the paper's SL statistic: the average acquisition
// stack length across the cycle's tuples.
func (c *Cycle) AvgStackDepth() float64 {
	if len(c.Tuples) == 0 {
		return 0
	}
	sum := 0
	for _, tp := range c.Tuples {
		sum += tp.StackDepth()
	}
	return float64(sum) / float64(len(c.Tuples))
}

// Config controls cycle detection.
type Config struct {
	// MaxLength bounds the number of threads per cycle;
	// DefaultMaxLength when zero.
	MaxLength int
}

// Cycles finds every potential deadlock in tr.
func Cycles(tr *trace.Trace, cfg Config) []*Cycle {
	return CyclesCtx(context.Background(), tr, cfg)
}

// CyclesCtx is Cycles with observability: when ctx carries an
// obs.Recorder, the reduction and the chain search each emit a span
// ("detect.reduce", "detect.search") with tuple and cycle counts, so
// the detection cost split is visible per run.
func CyclesCtx(ctx context.Context, tr *trace.Trace, cfg Config) []*Cycle {
	_, sp := obs.Start(ctx, "detect.reduce")
	sp.Add("tuples_in", int64(len(tr.Tuples)))
	tuples := Reduce(tr.Tuples)
	sp.Add("tuples_out", int64(len(tuples)))
	sp.End()
	_, sp = obs.Start(ctx, "detect.search")
	defer sp.End()
	sp.Add("tuples", int64(len(tuples)))
	cycles := search(tuples, cfg.MaxLength)
	sp.Add("cycles", int64(len(cycles)))
	return cycles
}

// Reduce iteratively removes tuples that cannot belong to any cycle —
// the lock-dependency reduction of MagicFuzzer. A tuple η = (t, L, ℓ)
// survives only while both hold:
//
//   - some other thread's surviving tuple holds ℓ (someone to wait on),
//     and
//   - some other thread's surviving tuple acquires a lock in L (someone
//     waiting on us).
//
// Removing a tuple can invalidate others, so the filter runs to a fixed
// point. On traces dominated by non-conflicting lock activity (a busy
// server's request traffic) this discards nearly everything before the
// exponential chain search runs.
func Reduce(tuples []*trace.Tuple) []*trace.Tuple {
	r := newReducer(tuples)
	r.run()
	out := make([]*trace.Tuple, 0, len(r.cands))
	for _, c := range r.cands {
		if c.alive {
			out = append(out, c.tp)
		}
	}
	return out
}

// reducer is the worklist state of the reduction fixpoint. Instead of
// rebuilding the heldBy/wants relations every round (quadratic on
// removal cascades), it maintains per-(lock, thread) reference counts
// and re-examines a tuple only when a count it depends on drops to
// zero — the only transition that can newly falsify a survival
// condition, since counts never increase.
type reducer struct {
	threadIDs map[string]int
	lockIDs   map[string]int
	cands     []reduceCand
	// wantCnt[l][t] counts alive tuples of thread t acquiring lock l;
	// holdCnt[l][t] counts alive tuples of thread t holding l. Entries
	// are deleted on zero so len() is the distinct-thread count.
	wantCnt, holdCnt []map[int]int
	// wantersOf[l] / holdersOf[l] are candidate indices acquiring /
	// holding lock l — the tuples to re-examine when the opposite
	// relation on l shrinks.
	wantersOf, holdersOf [][]int
	queue                []int
	queued               []bool
}

// reduceCand is one candidate tuple with interned lock IDs.
type reduceCand struct {
	tp     *trace.Tuple
	thread int
	lock   int
	held   []int
	alive  bool
}

func newReducer(tuples []*trace.Tuple) *reducer {
	r := &reducer{
		threadIDs: make(map[string]int, 8),
		lockIDs:   make(map[string]int, 16),
	}
	for _, tp := range tuples {
		if len(tp.Held) == 0 {
			continue // cannot participate: holds nothing for others to wait on
		}
		c := reduceCand{
			tp:     tp,
			thread: intern(r.threadIDs, tp.Thread),
			lock:   r.internLock(tp.Lock),
			held:   make([]int, len(tp.Held)),
			alive:  true,
		}
		for i, h := range tp.Held {
			c.held[i] = r.internLock(h.Lock)
		}
		r.cands = append(r.cands, c)
	}
	for i := range r.cands {
		c := &r.cands[i]
		bump(r.wantCnt, c.lock, c.thread, 1)
		r.wantersOf[c.lock] = append(r.wantersOf[c.lock], i)
		for _, l := range c.held {
			bump(r.holdCnt, l, c.thread, 1)
			r.holdersOf[l] = append(r.holdersOf[l], i)
		}
	}
	return r
}

func (r *reducer) internLock(name string) int {
	id, ok := r.lockIDs[name]
	if !ok {
		id = len(r.lockIDs)
		r.lockIDs[name] = id
		r.wantCnt = append(r.wantCnt, nil)
		r.holdCnt = append(r.holdCnt, nil)
		r.wantersOf = append(r.wantersOf, nil)
		r.holdersOf = append(r.holdersOf, nil)
	}
	return id
}

func intern(m map[string]int, name string) int {
	id, ok := m[name]
	if !ok {
		id = len(m)
		m[name] = id
	}
	return id
}

// bump adjusts counts[l][t] by delta, deleting the entry at zero.
func bump(counts []map[int]int, l, t, delta int) {
	m := counts[l]
	if m == nil {
		m = make(map[int]int, 2)
		counts[l] = m
	}
	if n := m[t] + delta; n > 0 {
		m[t] = n
	} else {
		delete(m, t)
	}
}

// otherIn reports whether counts[l] has an entry for a thread ≠ self.
func otherIn(counts []map[int]int, l, self int) bool {
	m := counts[l]
	if len(m) >= 2 {
		return true
	}
	if len(m) == 1 {
		_, own := m[self]
		return !own
	}
	return false
}

// survives checks the two MagicFuzzer conditions for candidate c.
func (r *reducer) survives(c *reduceCand) bool {
	if !otherIn(r.holdCnt, c.lock, c.thread) {
		return false
	}
	for _, l := range c.held {
		if otherIn(r.wantCnt, l, c.thread) {
			return true
		}
	}
	return false
}

// run drains the worklist to the fixed point. Every candidate is
// examined once up front; afterwards only zero-transitions of a
// (lock, thread) count re-enqueue its dependents, so the total work is
// the initial pass plus bounded propagation per removal.
func (r *reducer) run() {
	r.queued = make([]bool, len(r.cands))
	r.queue = make([]int, 0, len(r.cands))
	for i := range r.cands {
		r.push(i)
	}
	for len(r.queue) > 0 {
		i := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.queued[i] = false
		c := &r.cands[i]
		if !c.alive || r.survives(c) {
			continue
		}
		c.alive = false
		// Retract c's contributions; a count hitting zero wakes the
		// tuples whose condition read that count.
		if bump(r.wantCnt, c.lock, c.thread, -1); r.wantCnt[c.lock][c.thread] == 0 {
			for _, j := range r.holdersOf[c.lock] {
				r.push(j)
			}
		}
		for _, l := range c.held {
			if bump(r.holdCnt, l, c.thread, -1); r.holdCnt[l][c.thread] == 0 {
				for _, j := range r.wantersOf[l] {
					r.push(j)
				}
			}
		}
	}
}

func (r *reducer) push(i int) {
	if !r.queued[i] && r.cands[i].alive {
		r.queued[i] = true
		r.queue = append(r.queue, i)
	}
}

// LockGraph is the lock graph over Dσ, grown one tuple at a time: the
// one chain search behind both batch detection and wolfd's streaming
// engine. It keeps "who holds ℓ" postings of the tuples added so far
// and roots the search at each newly added tuple η, extending through
// earlier tuples only. Every cycle has exactly one last-arriving
// member, so each cycle is found exactly once — by the Add of the tuple
// that closes it — and is reported rotated to minimum-thread-first.
//
// A LockGraph is not safe for concurrent use.
type LockGraph struct {
	maxLen int
	// tuples holds the added tuples by arrival ordinal.
	tuples []*trace.Tuple
	// heldBy maps a lock to the ordinals of the tuples holding it, in
	// arrival order.
	heldBy map[string][]int32
	// chain is the search stack: chain[0] is the newest tuple, and
	// chain[i+1] holds the lock chain[i] is acquiring.
	chain []int32
	// found are the cycles the current Add closed; ords holds their
	// ordinal sequences, in reported rotation, back to back.
	found []*Cycle
	ords  []int32
}

// NewLockGraph returns an empty graph bounding cycles at maxLen
// threads (DefaultMaxLength when maxLen <= 0).
func NewLockGraph(maxLen int) *LockGraph {
	if maxLen <= 0 {
		maxLen = DefaultMaxLength
	}
	return &LockGraph{maxLen: maxLen, heldBy: make(map[string][]int32)}
}

// Add feeds the next tuple in trace order and returns the cycles it
// closes (usually none). The returned slice is reused by the next Add.
func (g *LockGraph) Add(tp *trace.Tuple) []*Cycle {
	g.found, g.ords = g.found[:0], g.ords[:0]
	if len(tp.Held) == 0 {
		return nil // holds nothing: nobody can wait on it
	}
	ord := int32(len(g.tuples))
	g.tuples = append(g.tuples, tp)
	g.grow(ord)
	// Publish tp's holdings only after the search: a tuple cannot be
	// its own successor in a chain.
	for _, h := range tp.Held {
		g.heldBy[h.Lock] = append(g.heldBy[h.Lock], ord)
	}
	return g.found
}

// grow pushes tuple ord onto the chain, records the cycle if chain[0]
// holds the lock ord is acquiring, and explores every extension.
func (g *LockGraph) grow(ord int32) {
	g.chain = append(g.chain, ord)
	tp := g.tuples[ord]
	if len(g.chain) >= 2 && g.tuples[g.chain[0]].HoldsLock(tp.Lock) {
		g.close()
	}
	if len(g.chain) < g.maxLen {
		for _, next := range g.heldBy[tp.Lock] {
			if !g.conflicts(g.tuples[next]) {
				g.grow(next)
			}
		}
	}
	g.chain = g.chain[:len(g.chain)-1]
}

// conflicts reports whether next violates the distinct-thread or
// guard-lock condition against the chain.
func (g *LockGraph) conflicts(next *trace.Tuple) bool {
	for _, ord := range g.chain {
		tp := g.tuples[ord]
		if tp.Thread == next.Thread {
			return true
		}
		// Pairwise disjoint locksets (a shared held lock guards the
		// would-be deadlock).
		for _, h := range next.Held {
			if tp.HoldsLock(h.Lock) {
				return true
			}
		}
	}
	return false
}

// close records the chain as a cycle, rotated so the lexicographically
// smallest thread comes first. Threads in a cycle are distinct, so the
// rotation is unique.
func (g *LockGraph) close() {
	n := len(g.chain)
	minAt := 0
	for i, ord := range g.chain {
		if g.tuples[ord].Thread < g.tuples[g.chain[minAt]].Thread {
			minAt = i
		}
	}
	c := &Cycle{Tuples: make([]*trace.Tuple, n)}
	for i := range c.Tuples {
		ord := g.chain[(minAt+i)%n]
		c.Tuples[i] = g.tuples[ord]
		g.ords = append(g.ords, ord)
	}
	g.found = append(g.found, c)
}

// search finds every cycle among tuples (in trace order) by feeding
// them to a LockGraph, then sorts the cycles by their arrival-ordinal
// sequences. That is exactly the order of a depth-first search taking
// roots in trace order and children in posting order, recording each
// closing chain before extending it: every cycle's first tuple is its
// minimum-thread root, and such a search lists chains in lexicographic
// ordinal order, a prefix before its extensions.
func search(tuples []*trace.Tuple, maxLen int) []*Cycle {
	if len(tuples) < 2 {
		return nil // a cycle needs two tuples
	}
	g := NewLockGraph(maxLen)
	var found []*Cycle
	var ords []int32
	for _, tp := range tuples {
		found = append(found, g.Add(tp)...)
		ords = append(ords, g.ords...)
	}
	if len(found) < 2 {
		return found
	}
	type keyed struct {
		c   *Cycle
		key []int32
	}
	ks := make([]keyed, len(found))
	off := 0
	for i, c := range found {
		ks[i] = keyed{c, ords[off : off+len(c.Tuples)]}
		off += len(c.Tuples)
	}
	slices.SortFunc(ks, func(a, b keyed) int { return slices.Compare(a.key, b.key) })
	for i := range ks {
		found[i] = ks[i].c
	}
	return found
}
