package trace

import (
	"slices"

	"wolf/sim"
)

// ThreadTuples builds one thread's tuples. It is the one place that
// decides what an acquisition's tuple is, shared by the sim Recorder,
// wolfsync and the replay strategy. It owns the thread's lock stack —
// L_t with the context C_t of each entry, plus reentrant re-acquisition
// depths — the per-site occurrence counter behind Key.Occ, which
// acquisitions and data accesses share, and the dense tuple position.
// The thread ID, the execution index and τ are the caller's, because
// sim and wolfsync number them differently.
//
// A ThreadTuples is owned by its thread's recorder and is not safe for
// concurrent use. The zero value is an unnamed thread; Reset names it.
type ThreadTuples struct {
	name string
	held []HeldLock
	// reent lists the reentrant re-acquisitions of held locks that are
	// not yet released, one entry per level.
	reent []string
	occ   map[string]int
	keys  int
	pos   int
}

// Threads holds one builder per thread name.
type Threads map[string]*ThreadTuples

// Get returns the builder of the thread called name, starting a fresh
// one on first use.
func (ts Threads) Get(name string) *ThreadTuples {
	b := ts[name]
	if b == nil {
		b = &ThreadTuples{name: name}
		ts[name] = b
	}
	return b
}

// Reset starts a fresh thread called name: no locks held, and key and
// position counters from zero.
func (b *ThreadTuples) Reset(name string) {
	b.held, b.reent = b.held[:0], b.reent[:0]
	b.Rename(name)
}

// Rename gives the same thread a new identity: keys and positions are
// dense per thread name, so both restart from zero, while the locks it
// holds stay on its stack under the keys they were acquired with.
func (b *ThreadTuples) Rename(name string) {
	b.name = name
	clear(b.occ)
	b.keys, b.pos = 0, 0
}

// Name returns the thread name the builder stamps on tuples and keys.
func (b *ThreadTuples) Name() string { return b.name }

// Pos returns how many tuples the thread has kept: the Pos of its next
// tuple, and the PosAfter of a data access made now.
func (b *ThreadTuples) Pos() int { return b.pos }

// Keys returns how many keys the thread has consumed.
func (b *ThreadTuples) Keys() int { return b.keys }

// holding returns the stack index of lock, or -1. A lock is on the
// stack at most once: re-acquisitions are counted in reent.
func (b *ThreadTuples) holding(lock string) int {
	return slices.IndexFunc(b.held, func(h HeldLock) bool { return h.Lock == lock })
}

// Acquire records the thread's acquisition of lock at site. Re-acquiring
// a lock already on the stack is reentrant: Acquire counts one more
// level and reports false, leaving tp untouched. Otherwise Acquire
// consumes the site's next key, fills *tp — its Held is a copy of the
// stack, in acquisition order — and pushes the lock.
func (b *ThreadTuples) Acquire(tp *Tuple, lock, site string, tid sim.ThreadID, idx sim.Index, tau int) bool {
	if b.holding(lock) >= 0 {
		b.reent = append(b.reent, lock)
		return false
	}
	key := b.CountKey(site)
	// Field by field: *tp may alias a composite literal's operands, so
	// a literal would be built in a zeroed temporary and then copied.
	tp.Thread, tp.ThreadID, tp.Lock, tp.Site = b.name, tid, lock, site
	tp.Idx, tp.Key, tp.Tau, tp.Pos = idx, key, tau, b.pos
	tp.Held = append([]HeldLock(nil), b.held...)
	b.pos++
	b.held = append(b.held, HeldLock{Lock: lock, Idx: idx, Key: key, Site: site})
	return true
}

// Drop hands back the position of the tuple the last Acquire built, for
// a caller that could not keep it. The key stays consumed and the lock
// stays held, so the thread's kept tuples stay dense and later held sets
// stay true.
func (b *ThreadTuples) Drop() { b.pos-- }

// Release records the thread's release of lock: one reentrant level if
// any is left, else the lock leaves the stack wherever it sits, since
// Java monitors and Go mutexes release in any order. It reports false
// when lock is not on the stack.
func (b *ThreadTuples) Release(lock string) bool {
	if i := slices.Index(b.reent, lock); i >= 0 {
		b.reent = slices.Delete(b.reent, i, i+1)
		return true
	}
	i := b.holding(lock)
	if i >= 0 {
		b.held = slices.Delete(b.held, i, i+1)
	}
	return i >= 0
}

// NextKey returns the key the thread's next event at site would consume,
// without consuming it.
func (b *ThreadTuples) NextKey(site string) Key {
	return Key{Thread: b.name, Site: site, Occ: b.occ[site] + 1}
}

// CountKey consumes and returns the thread's next key at site. Acquire
// counts through it; data accesses and replayed events call it directly.
func (b *ThreadTuples) CountKey(site string) Key {
	if b.occ == nil {
		b.occ = make(map[string]int)
	}
	b.occ[site]++
	b.keys++
	return Key{Thread: b.name, Site: site, Occ: b.occ[site]}
}
