// Package wolfsync instruments real Go programs for WOLF: drop-in
// replacements for sync.Mutex and sync.RWMutex that record every lock
// acquisition as a WTRC tuple, so traces from production code feed the
// same detection pipeline as sim recordings.
//
// The recorder is designed to stay off the program's hot path:
//
//   - With no session active, Lock and Unlock cost one atomic load on
//     top of the sync mutex and allocate nothing.
//   - A recorded Lock+Unlock pair costs about 0.6 µs and one
//     allocation, plus one for the held-set snapshot when other locks
//     are held: goroutine identity is read from the runtime's g (about
//     4 ns; see goid.go), the call site costs one runtime.Callers plus
//     an interned lookup, and the tuple goes into a lock-free sharded
//     buffer (one CAS, no shared lock).
//   - Sinks never block the instrumented program: the file sink writes
//     on demand, the streaming sink ships snapshots from a background
//     goroutine and degrades to drop-and-count when wolfd is
//     unreachable.
//
// Only acquisitions made while a session is active are on its lock
// stacks. A lock taken before Start (or in an earlier session) is in
// no recorded held set, and its release inside the session counts one
// anomaly (Stats.Anomalies).
//
// Thread identity follows the paper's creation-chain scheme: the
// goroutine that calls Start is "main", and goroutines spawned through
// wolfsync.Go get stable names parent + "/" + name + "." + n — the
// exact naming sim uses, which is what makes fingerprints from real
// runs byte-comparable with fingerprints from simulated ones.
// Goroutines the recorder has never seen (spawned with plain go, or by
// a library such as net/http) are admitted with generated "g.N" names;
// use Label from inside such a goroutine to give it a meaningful one.
//
// Acquisitions are recorded at request time, before blocking on the
// underlying mutex. A run that completes yields the same trace either
// way (a goroutine does nothing between request and grant), and a run
// that deadlocks for real leaves the blocked requests in the trace —
// which is precisely what makes the wedge diagnosable after the fact.
//
// Minimal use:
//
//	rec, _ := wolfsync.Start()          // sinks from WOLFSYNC_* env
//	defer rec.Stop()
//	var mu wolfsync.Mutex
//	mu.Lock()
//	// ...
//	mu.Unlock()
package wolfsync

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wolf/internal/trace"
	"wolf/sim"
)

// goroutines maps runtime goroutine IDs (goid) to their recorder-side
// state.
// Entries registered by Go are removed when the goroutine returns;
// first-touch entries for anonymous goroutines stay until process
// exit (the runtime never reuses goroutine IDs, so a stale entry can
// never be resurrected — it is only garbage).
var goroutines sync.Map // map[uint64]*gstate

// anonSeq numbers goroutines that record before anyone names them.
var anonSeq atomic.Int64

// heldEntry is one level of the goroutine's lock stack.
type heldEntry struct {
	lock string
	site string
	idx  sim.Index
	key  trace.Key
	// reentrant marks a re-acquisition of a lock already on the stack
	// (nested RLock, and defensively a self-deadlocking double Lock):
	// no tuple is emitted and the entry is skipped in held-set
	// snapshots, mirroring how sim and the paper treat reentrancy.
	reentrant bool
}

// gstate is the recorder's per-goroutine state. Every field is written
// only by the owning goroutine (creation-chain counters included —
// a goroutine names only its own children), so no locking is needed;
// the registry map itself is the only shared structure.
type gstate struct {
	gid  uint64
	name string

	// epoch ties the counters and lock stack below to one recording
	// session; a new session resets them lazily on the goroutine's
	// next recorded acquisition (ensure).
	epoch uint64
	tid   sim.ThreadID
	seq   int            // 1-based operation counter (Idx.Seq)
	pos   int            // dense per-thread tuple position
	occ   map[string]int // per-site occurrence counter (Key.Occ)
	held  []heldEntry

	children map[string]int // per-name child ordinals for Go
}

// curG returns the calling goroutine's state, admitting it with a
// generated name on first touch.
func curG() *gstate {
	id := goid()
	if v, ok := goroutines.Load(id); ok {
		return v.(*gstate)
	}
	g := &gstate{gid: id, name: fmt.Sprintf("g.%d", anonSeq.Add(1)-1)}
	goroutines.Store(id, g)
	return g
}

// shard maps the goroutine to its event-buffer shard. The mapping is a
// pure function of the goroutine ID, so all of one goroutine's events
// land in one shard — that is what preserves per-thread order across
// partial drains.
func (g *gstate) shard() uint32 { return uint32(g.gid % shardCount) }

// holdsLock reports whether lock is already on the goroutine's stack.
func (g *gstate) holdsLock(lock string) bool {
	for i := range g.held {
		if g.held[i].lock == lock {
			return true
		}
	}
	return false
}

// ensure binds the goroutine's state to recorder r's session. Only
// acquisitions made while the session is active are on its lock
// stacks, so the first recorded acquisition in a new epoch drops the
// entries left from before Start or from an earlier session.
func (g *gstate) ensure(r *Recorder) {
	if g.epoch == r.epoch {
		return
	}
	g.epoch = r.epoch
	g.held = g.held[:0]
	g.newIdentity(r)
}

// newIdentity starts a fresh thread identity in r's session: a new
// thread ID and counters restarting from zero, since positions and
// keys are dense per thread name.
func (g *gstate) newIdentity(r *Recorder) {
	g.tid = sim.ThreadID(r.tids.Add(1) - 1)
	g.seq, g.pos = 0, 0
	g.occ = make(map[string]int)
}

// snapshotHeld copies the current non-reentrant lock stack in
// acquisition order — the L_t of the tuple about to be recorded.
func (g *gstate) snapshotHeld() []trace.HeldLock {
	var out []trace.HeldLock
	for i := range g.held {
		e := &g.held[i]
		if e.reentrant {
			continue
		}
		out = append(out, trace.HeldLock{Lock: e.lock, Idx: e.idx, Key: e.key, Site: e.site})
	}
	return out
}

// Go spawns fn on a new goroutine with a stable creation-chain name:
// parentName + "/" + name + "." + n, where n counts children of the
// same name spawned by the calling goroutine — the naming sim.Thread.Go
// uses, and the identity the paper's thread abstraction is built on.
// The child's registry entry is removed when fn returns.
func Go(name string, fn func()) {
	parent := curG()
	if parent.children == nil {
		parent.children = make(map[string]int)
	}
	n := parent.children[name]
	parent.children[name] = n + 1
	child := fmt.Sprintf("%s/%s.%d", parent.name, name, n)
	go func() {
		id := goid()
		g := &gstate{gid: id, name: child}
		goroutines.Store(id, g)
		defer goroutines.Delete(id)
		fn()
	}()
}

// Label names the calling goroutine for all acquisitions it records
// from now on. It is the escape hatch for goroutines not spawned via
// Go (HTTP handler goroutines, worker pools): call it on entry, before
// the first instrumented Lock. Tuples already recorded keep the old
// name, so a mid-session Label produces two thread identities; label
// early. Locks held across the Label stay on the lock stack under the
// keys they were recorded with.
func Label(name string) {
	if name == "" {
		return
	}
	g := curG()
	if g.name == name {
		return
	}
	g.name = name
	if r := active.Load(); r != nil && g.epoch == r.epoch {
		g.newIdentity(r)
	}
}
