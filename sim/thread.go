package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// ThreadID is the dense per-run identifier of a thread, assigned in
// creation order. Cross-run identity is the thread's name.
type ThreadID int

// Program is the body of a simulated thread. It must interact with shared
// state only through the Thread's operations (Lock, Unlock, Go, Join,
// Yield); plain Go code between operations runs exclusively, so reads and
// writes of shared program data are race-free by construction.
type Program func(t *Thread)

// threadState tracks a thread's lifecycle from the world's perspective.
type threadState int

const (
	// stateParked: the thread has a pending operation and is waiting to be
	// scheduled.
	stateParked threadState = iota
	// stateRunning: the thread is executing program code between
	// operations (only ever one thread at a time).
	stateRunning
	// stateDone: the thread has terminated.
	stateDone
)

// Thread is a simulated thread.
type Thread struct {
	w      *World
	id     ThreadID
	name   string
	parent *Thread

	prog    Program
	r       *runner // nil once the thread is done
	pending Op
	state   threadState

	seq      int // visible program operations executed
	held     []*Lock
	notified bool           // woken from a wait set, pending monitor reacquisition
	children map[string]int // per-name child counter for stable naming
	lockSeq  map[string]int // per-name lock counter for stable naming
	rng      *rand.Rand
}

// ID returns the dense per-run identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the stable creation-path name, for example "main/worker.1".
func (t *Thread) Name() string { return t.name }

// Parent returns the creating thread, or nil for the root thread.
func (t *Thread) Parent() *Thread { return t.parent }

// World returns the world the thread belongs to.
func (t *Thread) World() *World { return t.w }

// Seq returns the number of visible operations the thread has executed.
func (t *Thread) Seq() int { return t.seq }

// Pending returns the operation the thread is parked on. Meaningful only
// while the thread is parked (which is whenever a Strategy or Listener
// inspects it).
func (t *Thread) Pending() Op { return t.pending }

// Held returns the locks currently held by the thread, in acquisition
// order. The returned slice is owned by the thread; do not modify it.
func (t *Thread) Held() []*Lock { return t.held }

// Holds reports whether the thread currently holds l.
func (t *Thread) Holds(l *Lock) bool { return l != nil && l.owner == t }

// Terminated reports whether the thread has finished.
func (t *Thread) Terminated() bool { return t.state == stateDone }

// String formats the thread for diagnostics.
func (t *Thread) String() string { return fmt.Sprintf("thread(%s)", t.name) }

// Rand returns a deterministic per-thread random source seeded from the
// world seed and the thread's stable name. Programs that need randomness
// should use it so runs remain reproducible.
func (t *Thread) Rand() *rand.Rand {
	if t.rng == nil {
		h := fnv.New64a()
		h.Write([]byte(t.name))
		t.rng = NewRand(t.w.seed ^ int64(h.Sum64()))
	}
	return t.rng
}

// nextIndex allocates the execution index for the thread's next visible
// operation.
func (t *Thread) nextIndex() Index {
	t.seq++
	return Index{Thread: t.name, Seq: t.seq}
}

// announce parks the thread on op and returns once the operation's
// effect has executed. It first decides the next step itself
// (World.carryOn): when the strategy picks this thread, the operation
// executes here and the body continues without a switch. Otherwise the
// thread yields to the world with that decision. If the world aborted
// the run while the thread was parked, announce unwinds the thread body
// via worldStopped.
func (t *Thread) announce(op Op) {
	t.pending = op
	t.state = stateParked
	if !t.w.carryOn(t) {
		t.r.yield(struct{}{})
		if t.w.stopped {
			panic(worldStopped{})
		}
	}
	t.state = stateRunning
}

// Lock acquires l, blocking until it is free or already held by t.
// site labels the source location of the acquisition.
func (t *Thread) Lock(l *Lock, site string) {
	t.checkRunning("Lock")
	if l == nil {
		panic("sim: Lock(nil)")
	}
	t.announce(Op{Kind: OpLock, Lock: l, Site: site})
}

// Unlock releases one level of reentrancy of l. Unlocking a lock not held
// by t aborts the run with an error outcome.
func (t *Thread) Unlock(l *Lock, site string) {
	t.checkRunning("Unlock")
	if l == nil {
		panic("sim: Unlock(nil)")
	}
	t.announce(Op{Kind: OpUnlock, Lock: l, Site: site})
}

// WithLock acquires l at site, runs body, then releases l at the same
// site. It is the sim analogue of a Java synchronized block and the
// dominant pattern in workloads. body must not panic.
func (t *Thread) WithLock(l *Lock, site string, body func()) {
	t.Lock(l, site)
	body()
	t.Unlock(l, site)
}

// Go creates and starts a child thread running prog. The child's stable
// name is parentName + "/" + name + "." + n where n counts children of the
// same name created by this parent, mirroring the paper's creation-order
// thread identity. It returns the child's handle for Join.
func (t *Thread) Go(name string, prog Program, site string) *Thread {
	t.checkRunning("Go")
	if prog == nil {
		panic("sim: Go(nil program)")
	}
	if t.children == nil {
		t.children = make(map[string]int)
	}
	n := t.children[name]
	t.children[name] = n + 1
	child := t.w.newThread(t.name+"/"+name+"."+strconv.Itoa(n), t, prog)
	t.announce(Op{Kind: OpStart, Child: child, Site: site})
	return child
}

// Join blocks until target terminates.
func (t *Thread) Join(target *Thread, site string) {
	t.checkRunning("Join")
	if target == nil {
		panic("sim: Join(nil)")
	}
	t.announce(Op{Kind: OpJoin, Target: target, Site: site})
}

// Yield is a scheduling point with no synchronization effect, modeling
// computation the scheduler may interleave.
func (t *Thread) Yield(site string) {
	t.checkRunning("Yield")
	t.announce(Op{Kind: OpYield, Site: site})
}

// Wait releases monitor l entirely (saving the reentrancy depth), parks
// the thread in l's wait set, and returns only after another thread
// Notifies the monitor and the depth has been reacquired — Java
// Object.wait() semantics. Waiting on a monitor the thread does not
// hold aborts the run with a program error.
func (t *Thread) Wait(l *Lock, site string) {
	t.checkRunning("Wait")
	if l == nil {
		panic("sim: Wait(nil)")
	}
	if !t.Holds(l) {
		panic(fmt.Sprintf("sim: Wait on monitor %s not held by %s", l.Name(), t.Name()))
	}
	t.announce(Op{Kind: OpWait, Lock: l, Site: site})
}

// Notify wakes one thread (FIFO) from l's wait set; a no-op when the
// wait set is empty — the classic lost-notification hazard. The woken
// thread must reacquire the monitor before its Wait returns. Notifying
// a monitor the thread does not hold aborts the run.
func (t *Thread) Notify(l *Lock, site string) {
	t.checkRunning("Notify")
	if l == nil {
		panic("sim: Notify(nil)")
	}
	if !t.Holds(l) {
		panic(fmt.Sprintf("sim: Notify on monitor %s not held by %s", l.Name(), t.Name()))
	}
	t.announce(Op{Kind: OpNotify, Lock: l, Site: site})
}

// NotifyAll wakes every thread from l's wait set.
func (t *Thread) NotifyAll(l *Lock, site string) {
	t.checkRunning("NotifyAll")
	if l == nil {
		panic("sim: NotifyAll(nil)")
	}
	if !t.Holds(l) {
		panic(fmt.Sprintf("sim: NotifyAll on monitor %s not held by %s", l.Name(), t.Name()))
	}
	t.announce(Op{Kind: OpNotifyAll, Lock: l, Site: site})
}

// NewLock allocates a lock with the stable name name + "@" + threadName +
// "." + n, where n counts locks of the same base name allocated by this
// thread. Allocation is not a scheduling point, matching unmonitored
// object allocation in the paper's setting.
func (t *Thread) NewLock(name string) *Lock {
	t.checkRunning("NewLock")
	if t.lockSeq == nil {
		t.lockSeq = make(map[string]int)
	}
	n := t.lockSeq[name]
	t.lockSeq[name] = n + 1
	return t.w.newLock(name + "@" + t.name + "." + strconv.Itoa(n))
}

// done marks the thread terminated and returns its runner, parked at
// its idle point, to the free list.
func (t *Thread) done() {
	t.state = stateDone
	t.r.release()
	t.r = nil
}

// checkRunning guards against calling thread operations from outside the
// thread's own program (for example from a Listener or Strategy).
func (t *Thread) checkRunning(op string) {
	if t.state != stateRunning {
		panic(fmt.Sprintf("sim: %s called on thread %s which is not the running thread", op, t.name))
	}
}

// run executes the thread body on its runner, entered when the world
// executes OpBegin. It returns with the thread parked on OpExit or
// OpPanic, or, when the world aborted the run, once the body has
// unwound.
func (t *Thread) run() {
	defer func() {
		// Once the world has stopped, any panic is the unwind, including
		// one from an operation a deferred call attempts on the thread.
		if r := recover(); r != nil && !t.w.stopped {
			t.pending = Op{Kind: OpPanic, panicVal: r}
			t.state = stateParked
		}
	}()
	t.state = stateRunning
	t.prog(t)
	t.pending = Op{Kind: OpExit}
	t.state = stateParked
}

// worldStopped is panicked into parked threads when the world aborts a
// run early (step limit or program error) to unwind their bodies.
type worldStopped struct{}
