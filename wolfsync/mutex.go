package wolfsync

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// lockName lazily names an anonymous lock. Zero-value mutexes work
// like their sync counterparts; they get a generated "prefix#N" name
// on first use. Named constructors give locks the stable identities
// that make fingerprints meaningful (and comparable with sim locks of
// the same name).
type lockName struct {
	p atomic.Pointer[string]
}

func (n *lockName) get(prefix string) string {
	if s := n.p.Load(); s != nil {
		return *s
	}
	fresh := fmt.Sprintf("%s#%d", prefix, lockSeq.Add(1)-1)
	if n.p.CompareAndSwap(nil, &fresh) {
		return fresh
	}
	return *n.p.Load()
}

func (n *lockName) set(name string) { n.p.Store(&name) }

// Mutex is a drop-in replacement for sync.Mutex that records every
// acquisition with the active Recorder. With no Recorder active it is
// a sync.Mutex plus one atomic load. The zero value is an unlocked,
// anonymous mutex; NewMutex gives it a stable name.
//
// Acquisitions are recorded at request time — before blocking on the
// underlying mutex — so a real deadlock leaves its blocked requests in
// the trace. Re-acquiring a lock this goroutine already holds records
// nothing (and, as with sync.Mutex, will self-deadlock). Unlocking
// from a different goroutine than the locker is legal for sync.Mutex
// and tolerated here: the recorder cannot attribute such a release, so
// it counts an anomaly and the lock stays on the locker's recorded
// lockset — over-approximating held sets rather than corrupting them.
type Mutex struct {
	mu   sync.Mutex
	name lockName
}

// NewMutex returns a mutex recorded under the given stable name.
func NewMutex(name string) *Mutex {
	m := &Mutex{}
	m.name.set(name)
	return m
}

// Name returns the mutex's recorded identity, naming it if needed.
func (m *Mutex) Name() string { return m.name.get("m") }

// Lock acquires the mutex, recording the acquisition against the
// caller's source line.
func (m *Mutex) Lock() {
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("m"), callSite())
	}
	m.mu.Lock()
}

// LockAt is Lock with an explicit site label — for wrappers whose
// immediate caller is not the interesting frame, and for programs that
// must match a sim workload's site strings exactly.
func (m *Mutex) LockAt(site string) {
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("m"), site)
	}
	m.mu.Lock()
}

// TryLock attempts the lock without blocking. A failed try records
// nothing: the goroutine never waits, so there is no wait-for edge to
// record. A successful try is an ordinary acquisition.
func (m *Mutex) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("m"), callSite())
	}
	return true
}

// Unlock releases the mutex and pops the caller's most recent matching
// held entry.
func (m *Mutex) Unlock() {
	if r := active.Load(); r != nil {
		noteRelease(r, m.name.get("m"))
	}
	m.mu.Unlock()
}

// RWMutex is a drop-in replacement for sync.RWMutex. Both read and
// write acquisitions are recorded as acquisitions of the same lock
// name: WTRC's event vocabulary has a single acquire event, and
// collapsing the read/write distinction is the sound direction — every
// real deadlock involving the write side is still a cycle in the
// recorded order, at the cost of possible false cycles between
// readers (the detector's replay stage exists to sort exactly such
// candidates out). A nested RLock by the same goroutine is reentrant:
// recorded once, held until the matching RUnlock.
type RWMutex struct {
	mu   sync.RWMutex
	name lockName
}

// NewRWMutex returns an RWMutex recorded under the given stable name.
func NewRWMutex(name string) *RWMutex {
	m := &RWMutex{}
	m.name.set(name)
	return m
}

// Name returns the mutex's recorded identity, naming it if needed.
func (m *RWMutex) Name() string { return m.name.get("rw") }

// Lock acquires the write lock.
func (m *RWMutex) Lock() {
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("rw"), callSite())
	}
	m.mu.Lock()
}

// LockAt is Lock with an explicit site label.
func (m *RWMutex) LockAt(site string) {
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("rw"), site)
	}
	m.mu.Lock()
}

// TryLock attempts the write lock without blocking; only a successful
// try is recorded.
func (m *RWMutex) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("rw"), callSite())
	}
	return true
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock() {
	if r := active.Load(); r != nil {
		noteRelease(r, m.name.get("rw"))
	}
	m.mu.Unlock()
}

// RLock acquires the read lock, recorded as an acquisition of the
// same lock name (see the type comment for why that is the sound
// mapping).
func (m *RWMutex) RLock() {
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("rw"), callSite())
	}
	m.mu.RLock()
}

// RLockAt is RLock with an explicit site label.
func (m *RWMutex) RLockAt(site string) {
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("rw"), site)
	}
	m.mu.RLock()
}

// TryRLock attempts the read lock without blocking; only a successful
// try is recorded.
func (m *RWMutex) TryRLock() bool {
	if !m.mu.TryRLock() {
		return false
	}
	if r := active.Load(); r != nil {
		noteAcquire(r, m.name.get("rw"), callSite())
	}
	return true
}

// RUnlock releases the read lock.
func (m *RWMutex) RUnlock() {
	if r := active.Load(); r != nil {
		noteRelease(r, m.name.get("rw"))
	}
	m.mu.RUnlock()
}
