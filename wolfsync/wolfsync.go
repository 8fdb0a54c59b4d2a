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
// A session binds each thread name once: a later claimant of a bound
// name records as name~2, name~3, ... (see Label). Each goroutine
// builds its tuples with a trace.ThreadTuples, the builder the sim
// recorder uses too, so held sets, keys and positions mean the same in
// both.
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

// gstate is the recorder's per-goroutine state. Every field is written
// only by the owning goroutine (creation-chain counters included —
// a goroutine names only its own children), so no locking is needed;
// the registry map itself is the only shared structure.
type gstate struct {
	gid uint64
	// name is the name the goroutine claims; a session may bind it
	// under a disambiguated one (see Label).
	name string

	// epoch ties tid and the tuple builder to one recording session; a
	// new session rebinds them lazily on the goroutine's next recorded
	// acquisition (ensure).
	epoch uint64
	tid   sim.ThreadID
	// tt holds the goroutine's lock stack, keys and positions in the
	// session, under the name the session bound.
	tt trace.ThreadTuples

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

// ensure binds the goroutine to recorder r's session. Only
// acquisitions made while the session is active are on its lock
// stacks, so the first recorded acquisition in a new epoch drops the
// entries left from before Start or from an earlier session.
func (g *gstate) ensure(r *Recorder) {
	if g.epoch != r.epoch {
		g.join(r, r.bind(g.name))
	}
}

// join makes the goroutine a fresh thread of session r under name, a
// name r has bound to it.
func (g *gstate) join(r *Recorder, name string) {
	g.epoch = r.epoch
	g.tid = sim.ThreadID(r.tids.Add(1) - 1)
	g.tt.Reset(name)
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
//
// A session binds each thread name once, because one name's tuples
// are one thread's. A goroutine that claims a name the session has
// already bound — by Label, by its Go chain name, or as a "main" left
// from an earlier session — records as name~2, the next one as
// name~3, and so on, skipping names already bound. Start's caller
// binds its name, normally "main", before any other goroutine can.
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
		g.tid = sim.ThreadID(r.tids.Add(1) - 1)
		g.tt.Rename(r.bind(name))
	}
}
