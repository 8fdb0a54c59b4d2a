// Package trace records the lock dependency relation Dσ of a run — the
// data both the WOLF cycle detector and the Generator consume.
//
// Dσ is a sequence of tuples η = (t, L_t, ℓ, C_t, τ_t): thread t acquired
// lock ℓ while holding the locks in L_t, whose acquisitions happened at
// the execution indices in C_t, at thread timestamp τ_t (Section 3.1 and
// 3.2 of the paper). Only first (non-reentrant) acquisitions are
// recorded, matching Java monitor semantics.
package trace

import (
	"fmt"
	"strings"

	"wolf/internal/vclock"
	"wolf/sim"
)

// Key is the stable cross-run identity of one lock acquisition: the
// acquiring thread, the source site of the acquisition, and the 1-based
// occurrence count of that site within the thread. It plays the role of
// the paper's execution indices, which "identify instructions, objects
// and threads across runs": unlike a raw operation counter it survives
// control-flow divergence elsewhere in the thread.
type Key struct {
	// Thread is the stable thread name.
	Thread string
	// Site is the source location of the acquisition.
	Site string
	// Occ counts non-reentrant acquisitions at Site by Thread, 1-based.
	Occ int
}

// Zero reports whether the key is the zero value.
func (k Key) Zero() bool { return k == Key{} }

// String formats the key as thread@site#occ.
func (k Key) String() string { return fmt.Sprintf("%s@%s#%d", k.Thread, k.Site, k.Occ) }

// Less orders keys lexicographically for deterministic output.
func (k Key) Less(o Key) bool {
	if k.Thread != o.Thread {
		return k.Thread < o.Thread
	}
	if k.Site != o.Site {
		return k.Site < o.Site
	}
	return k.Occ < o.Occ
}

// Tuple is one element η of the lock dependency relation Dσ.
type Tuple struct {
	// Thread is the stable name of the acquiring thread t.
	Thread string
	// ThreadID is t's dense per-run identifier.
	ThreadID sim.ThreadID
	// Lock is the stable name of the lock ℓ being acquired.
	Lock string
	// Site is the source location of the acquisition.
	Site string
	// Idx is the per-run execution index of the acquisition.
	Idx sim.Index
	// Key is the stable cross-run identity of the acquisition (µ(ℓ)).
	Key Key
	// Tau is τ_t, the thread's timestamp at the acquisition (Bottom when
	// recorded by the base, timestamp-free detector).
	Tau int
	// Held lists the locks in L_t (excluding ℓ) in acquisition order.
	Held []HeldLock
	// Pos is the 0-based position of this tuple within the thread's own
	// tuple sequence, used to slice D'σ prefixes.
	Pos int
}

// HeldLock is one entry of a tuple's lockset with its acquisition context.
type HeldLock struct {
	// Lock is the stable lock name.
	Lock string
	// Idx is the per-run execution index where it was acquired (C_t
	// entry).
	Idx sim.Index
	// Key is the stable cross-run identity of that acquisition.
	Key Key
	// Site is the source location of that acquisition.
	Site string
}

// Mu returns the stable acquisition key associated with lock name within
// the tuple: the held acquisition for locks in L_t, or the tuple's own
// acquisition for ℓ itself. It implements the paper's µ function,
// extended to the pending lock as used by Algorithm 3's type-D edges.
func (tp *Tuple) Mu(lock string) (Key, bool) {
	if lock == tp.Lock {
		return tp.Key, true
	}
	for _, h := range tp.Held {
		if h.Lock == lock {
			return h.Key, true
		}
	}
	return Key{}, false
}

// SiteOf returns the source location of the acquisition of lock within
// the tuple (held or pending), if any.
func (tp *Tuple) SiteOf(lock string) (string, bool) {
	if lock == tp.Lock {
		return tp.Site, true
	}
	for _, h := range tp.Held {
		if h.Lock == lock {
			return h.Site, true
		}
	}
	return "", false
}

// HoldsLock reports whether lock is in the tuple's lockset L_t.
func (tp *Tuple) HoldsLock(lock string) bool {
	for _, h := range tp.Held {
		if h.Lock == lock {
			return true
		}
	}
	return false
}

// LockNames returns the names in L_t, in acquisition order.
func (tp *Tuple) LockNames() []string {
	out := make([]string, len(tp.Held))
	for i, h := range tp.Held {
		out[i] = h.Lock
	}
	return out
}

// StackDepth is the paper's SL statistic for one tuple: the number of
// lock acquisitions on the thread's stack including the pending one.
func (tp *Tuple) StackDepth() int { return len(tp.Held) + 1 }

// String renders the tuple like the paper: (t, {L}, ℓ, {C}, τ).
func (tp *Tuple) String() string {
	var ls, cs []string
	for _, h := range tp.Held {
		ls = append(ls, h.Lock)
		cs = append(cs, h.Idx.String())
	}
	cs = append(cs, tp.Idx.String())
	return fmt.Sprintf("(%s,{%s},%s,{%s},%d)",
		tp.Thread, strings.Join(ls, ","), tp.Lock, strings.Join(cs, ","), tp.Tau)
}

// Trace is the recorded Dσ of one run plus the per-thread views the
// Generator needs.
type Trace struct {
	// Tuples is Dσ in global execution order.
	Tuples []*Tuple
	// byThread indexes each thread's tuples in program order.
	byThread map[string][]*Tuple
	// Clocks is the final vector clock of every thread (by ThreadID).
	Clocks []vclock.Vector
	// Taus is the final scalar timestamp of every thread (by ThreadID).
	Taus []int
	// Data holds the recorded shared-variable accesses in execution
	// order.
	Data []*DataEvent
	// dataByThread indexes data events per thread in program order.
	dataByThread map[string][]*DataEvent
	// Steps is the length of the recorded run.
	Steps int
	// Seed is the schedule seed that produced the trace, so the run can
	// be regenerated.
	Seed int64

	// indexOnce lazily caches the derived analysis index (see Index).
	indexOnce
}

// ByThread returns thread's tuples in program order.
func (tr *Trace) ByThread(thread string) []*Tuple { return tr.byThread[thread] }

// DataByThread returns thread's shared-variable accesses in program
// order.
func (tr *Trace) DataByThread(thread string) []*DataEvent { return tr.dataByThread[thread] }

// Threads returns the names of all threads that acquired locks, in first
// acquisition order.
func (tr *Trace) Threads() []string {
	var names []string
	seen := make(map[string]bool)
	for _, tp := range tr.Tuples {
		if !seen[tp.Thread] {
			seen[tp.Thread] = true
			names = append(names, tp.Thread)
		}
	}
	return names
}

// Prefix returns the tuples of thread strictly before position pos — the
// D'σ slice for a deadlocking tuple at Pos = pos.
func (tr *Trace) Prefix(thread string, pos int) []*Tuple {
	ts := tr.byThread[thread]
	if pos > len(ts) {
		pos = len(ts)
	}
	if pos < 0 {
		pos = 0
	}
	return ts[:pos]
}

// String renders the full Dσ, one tuple per line.
func (tr *Trace) String() string {
	var sb strings.Builder
	for _, tp := range tr.Tuples {
		sb.WriteString(tp.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Recorder is a sim.Listener that builds a Trace. If Timestamps is
// non-nil it must appear earlier in the listener list so τ values are
// current when acquisitions are recorded.
type Recorder struct {
	// Timestamps supplies τ values; nil records Tau = Bottom (the base
	// iGoodLock detector is timestamp-free).
	Timestamps *vclock.Tracker

	tuples       []*Tuple
	byThread     map[string][]*Tuple
	threads      Threads
	data         []*DataEvent
	dataByThread map[string][]*DataEvent
	lastStore    map[string]Key
	steps        int
}

// NewRecorder returns a recorder stamping timestamps from tr (which may
// be nil for the base detector).
func NewRecorder(tr *vclock.Tracker) *Recorder {
	return &Recorder{
		Timestamps:   tr,
		byThread:     make(map[string][]*Tuple),
		threads:      make(Threads),
		dataByThread: make(map[string][]*DataEvent),
		lastStore:    make(map[string]Key),
	}
}

// OnEvent records lock acquisitions and releases through the thread's
// builder. Sim decides reentrancy, since its monitors carry their depth
// across a Wait, so only first acquisitions and final releases reach
// the builder. A monitor Wait fully releases the lock; the runtime's
// wait-resume reacquisition is recorded as a fresh acquisition, since it
// can block and participate in deadlocks like any other.
func (r *Recorder) OnEvent(ev sim.Event) {
	r.steps++
	switch ev.Op.Kind {
	case sim.OpLock, sim.OpWaitResume:
		if ev.Reentrant {
			return
		}
		name := ev.Thread.Name()
		tau := vclock.Bottom
		if r.Timestamps != nil {
			tau = r.Timestamps.Tau(ev.Thread.ID())
		}
		tp := new(Tuple)
		if r.threads.Get(name).Acquire(tp, ev.Op.Lock.Name(), ev.Op.Site, ev.Thread.ID(), ev.Index, tau) {
			r.tuples = append(r.tuples, tp)
			r.byThread[name] = append(r.byThread[name], tp)
		}
	case sim.OpLoad, sim.OpStore:
		r.recordData(ev)
	case sim.OpUnlock, sim.OpWait:
		if !ev.Reentrant {
			r.threads.Get(ev.Thread.Name()).Release(ev.Op.Lock.Name())
		}
	}
}

// Finish assembles the Trace after the run completed.
func (r *Recorder) Finish(seed int64) *Trace {
	tr := &Trace{
		Tuples:       r.tuples,
		byThread:     r.byThread,
		Data:         r.data,
		dataByThread: r.dataByThread,
		Steps:        r.steps,
		Seed:         seed,
	}
	if r.Timestamps != nil {
		tr.Clocks = r.Timestamps.Snapshot()
		tr.Taus = r.Timestamps.Taus()
	}
	return tr
}
