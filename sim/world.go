package sim

import (
	"fmt"
)

// DefaultMaxSteps bounds a run when Options.MaxSteps is zero.
const DefaultMaxSteps = 1 << 20

// Options configures a run.
type Options struct {
	// Seed seeds per-thread random sources (Thread.Rand). The scheduling
	// strategy owns its own randomness.
	Seed int64
	// MaxSteps aborts the run after this many executed operations;
	// DefaultMaxSteps when zero.
	MaxSteps int
	// Listeners observe every executed operation, in order.
	Listeners []Listener
	// Setup, if non-nil, runs before the root thread starts. It may
	// allocate locks with World.NewLock and build shared program state.
	Setup func(w *World)
}

// World owns all threads and locks of one run and drives the schedule.
type World struct {
	seed      int64
	maxSteps  int
	listeners []Listener
	strategy  Strategy

	threads []*Thread
	// active holds non-terminated threads in creation order; enabled()
	// compacts it lazily so scheduling cost tracks live threads, not
	// every thread ever created.
	active []*Thread
	// en backs the slice enabled returns, reused every step.
	en     []*Thread
	locks  []*Lock
	byLock map[string]*Lock
	vars   []*Var
	byVar  map[string]*Var

	step    int
	stopped bool
	outcome *Outcome
}

// Factory produces a fresh program and options for one run. Analyses
// that re-execute a program (replay, schedule exploration, overhead
// measurement) take a Factory so every run gets independent state; the
// Setup closure must rebuild all locks and shared data.
type Factory func() (Program, Options)

// Run executes prog as the root thread "main" under the given strategy.
func Run(prog Program, s Strategy, opts Options) *Outcome {
	if prog == nil {
		panic("sim: Run(nil program)")
	}
	if s == nil {
		panic("sim: Run with nil strategy")
	}
	w := &World{
		seed:      opts.Seed,
		maxSteps:  opts.MaxSteps,
		listeners: opts.Listeners,
		strategy:  s,
		byLock:    make(map[string]*Lock),
		byVar:     make(map[string]*Var),
	}
	if w.maxSteps <= 0 {
		w.maxSteps = DefaultMaxSteps
	}
	if opts.Setup != nil {
		opts.Setup(w)
	}
	w.newThread("main", nil, prog)
	return w.run()
}

// NewLock allocates a lock with the given stable name. Names must be
// unique within a run; NewLock panics on duplicates. Use Thread.NewLock
// for locks allocated during execution, which suffixes a per-thread
// counter automatically.
func (w *World) NewLock(name string) *Lock {
	return w.newLock(name)
}

func (w *World) newLock(name string) *Lock {
	if _, dup := w.byLock[name]; dup {
		panic(fmt.Sprintf("sim: duplicate lock name %q", name))
	}
	l := &Lock{w: w, id: LockID(len(w.locks)), name: name}
	w.locks = append(w.locks, l)
	w.byLock[name] = l
	return l
}

// LockByName returns the lock with the given name, or nil.
func (w *World) LockByName(name string) *Lock { return w.byLock[name] }

// Locks returns all locks in creation order. The slice is owned by the
// world; do not modify it.
func (w *World) Locks() []*Lock { return w.locks }

// Threads returns all threads in creation order. The slice is owned by
// the world; do not modify it.
func (w *World) Threads() []*Thread { return w.threads }

// ThreadByName returns the thread with the given stable name, or nil.
func (w *World) ThreadByName(name string) *Thread {
	for _, t := range w.threads {
		if t.name == name {
			return t
		}
	}
	return nil
}

// Step returns the number of operations executed so far.
func (w *World) Step() int { return w.step }

// newThread registers a thread parked on OpBegin and assigns it an idle
// runner, which enters the body when OpBegin executes.
func (w *World) newThread(name string, parent *Thread, prog Program) *Thread {
	t := &Thread{
		w:      w,
		id:     ThreadID(len(w.threads)),
		name:   name,
		parent: parent,
		prog:   prog,
		// The root thread is immediately schedulable; children stay on
		// OpNone until their parent's OpStart executes.
		pending: Op{Kind: OpNone},
		state:   stateParked,
	}
	if parent == nil {
		t.pending = Op{Kind: OpBegin}
	}
	w.threads = append(w.threads, t)
	w.active = append(w.active, t)
	t.r = getRunner(t)
	return t
}

// enabled returns the parked threads whose pending operation can execute
// now, in thread-creation order (deterministic for strategies). It also
// compacts terminated threads out of the active list. The result shares
// its backing array with every other step's and is valid until the next
// call.
func (w *World) enabled() []*Thread {
	en := w.en[:0]
	live := w.active[:0]
	for _, t := range w.active {
		if t.state == stateDone {
			continue
		}
		live = append(live, t)
		if t.state == stateParked && w.canExecute(t) {
			en = append(en, t)
		}
	}
	w.active = live
	w.en = en
	return en
}

// canExecute reports whether t's pending operation would not block.
func (w *World) canExecute(t *Thread) bool {
	switch op := t.pending; op.Kind {
	case OpLock:
		return op.Lock.owner == nil || op.Lock.owner == t
	case OpJoin:
		return op.Target.state == stateDone
	case OpWaitResume:
		// Wait returns only after a notification, and the monitor must
		// be reacquirable.
		return t.notified && op.Lock.owner == nil
	case OpNone:
		return false
	default:
		return true
	}
}

// run drives the schedule until termination, deadlock, error or the step
// limit, then unwinds any surviving threads.
func (w *World) run() *Outcome {
	defer w.unwind()
	for {
		enabled := w.enabled()
		if len(enabled) == 0 {
			if w.allDone() {
				return w.finish(&Outcome{Kind: Terminated, Steps: w.step})
			}
			return w.finish(&Outcome{Kind: Deadlocked, Steps: w.step, Blocked: w.blocked()})
		}
		if w.step >= w.maxSteps {
			return w.finish(&Outcome{Kind: StepLimit, Steps: w.step, Blocked: w.blocked()})
		}
		t := w.strategy.Pick(w, enabled)
		if t == nil {
			// The strategy halts the run at this scheduling point.
			out := &Outcome{Kind: Halted, Steps: w.step}
			for _, e := range enabled {
				out.EnabledAtHalt = append(out.EnabledAtHalt, e.name)
			}
			return w.finish(out)
		}
		if t.state != stateParked || !w.canExecute(t) {
			return w.finish(&Outcome{
				Kind:  ProgramError,
				Steps: w.step,
				Err:   fmt.Errorf("strategy picked an unschedulable thread %v", t),
			})
		}
		if out := w.execute(t); out != nil {
			return w.finish(out)
		}
	}
}

// execute applies t's pending operation, notifies listeners, and switches
// to t until its next announcement. A non-nil return aborts the run.
func (w *World) execute(t *Thread) *Outcome {
	op := t.pending
	ev := Event{Op: op, Thread: t, Step: w.step}
	w.step++
	switch op.Kind {
	case OpBegin:
		// No effect; the thread starts running user code after resume.
	case OpLock:
		ev.Index = t.nextIndex()
		ev.Reentrant = op.Lock.acquire(t)
	case OpUnlock:
		ev.Index = t.nextIndex()
		reentrant, err := op.Lock.release(t)
		if err != nil {
			return &Outcome{Kind: ProgramError, Steps: w.step, Err: err}
		}
		ev.Reentrant = reentrant
	case OpStart:
		ev.Index = t.nextIndex()
		// The child becomes schedulable only now: it was created parked
		// on OpNone so it cannot run before its start operation executes.
		op.Child.pending = Op{Kind: OpBegin}
	case OpJoin, OpYield:
		ev.Index = t.nextIndex()
	case OpLoad:
		ev.Index = t.nextIndex()
	case OpStore:
		ev.Index = t.nextIndex()
		op.Var.val = op.Val
	case OpWait:
		ev.Index = t.nextIndex()
		// Release the monitor entirely and enter the wait set; the
		// thread stays parked on the runtime-generated reacquisition.
		l := op.Lock
		depth := l.depth
		l.depth = 0
		l.owner = nil
		for i := len(t.held) - 1; i >= 0; i-- {
			if t.held[i] == l {
				t.held = append(t.held[:i], t.held[i+1:]...)
				break
			}
		}
		l.waitSet = append(l.waitSet, t)
		t.notified = false
		t.pending = Op{Kind: OpWaitResume, Lock: l, Site: op.Site, savedDepth: depth}
		for _, ln := range w.listeners {
			ln.OnEvent(ev)
		}
		return nil // the thread remains parked until notified
	case OpWaitResume:
		ev.Index = t.nextIndex()
		l := op.Lock
		l.owner = t
		l.depth = op.savedDepth
		t.held = append(t.held, l)
		t.notified = false
	case OpNotify:
		ev.Index = t.nextIndex()
		l := op.Lock
		if len(l.waitSet) > 0 {
			l.waitSet[0].notified = true
			l.waitSet = l.waitSet[1:]
		}
	case OpNotifyAll:
		ev.Index = t.nextIndex()
		l := op.Lock
		for _, waiter := range l.waitSet {
			waiter.notified = true
		}
		l.waitSet = nil
	case OpExit:
		t.done()
		t.pending = Op{}
		if len(t.held) > 0 {
			return &Outcome{
				Kind:  ProgramError,
				Steps: w.step,
				Err:   fmt.Errorf("thread %s exited holding %d lock(s)", t.name, len(t.held)),
			}
		}
	case OpPanic:
		t.done()
		t.pending = Op{}
		return &Outcome{
			Kind:  ProgramError,
			Steps: w.step,
			Err:   fmt.Errorf("thread %s panicked: %v", t.name, op.panicVal),
		}
	default:
		return &Outcome{Kind: ProgramError, Steps: w.step, Err: fmt.Errorf("invalid pending op %v", op)}
	}
	for _, ln := range w.listeners {
		ln.OnEvent(ev)
	}
	if op.Kind == OpExit || op.Kind == OpPanic {
		return nil // the thread body has already returned
	}
	t.pending = Op{}
	t.r.next()
	return nil
}

// allDone reports whether every thread has terminated.
func (w *World) allDone() bool {
	for _, t := range w.active {
		if t.state != stateDone {
			return false
		}
	}
	return true
}

// blocked describes every parked thread that cannot execute, for deadlock
// reports.
func (w *World) blocked() []BlockedThread {
	var bs []BlockedThread
	for _, t := range w.active {
		if t.state == stateParked && !w.canExecute(t) && t.pending.Kind != OpNone {
			b := BlockedThread{
				Thread: t.name,
				Op:     t.pending,
				// NextIndex is the index the operation would get.
				NextIndex: Index{Thread: t.name, Seq: t.seq + 1},
			}
			for _, l := range t.held {
				b.Holding = append(b.Holding, l.Name())
			}
			bs = append(bs, b)
		}
	}
	return bs
}

// finish records the outcome and returns it.
func (w *World) finish(out *Outcome) *Outcome {
	out.World = w
	w.outcome = out
	return out
}

// unwind ends every thread that has not terminated. It switches once to
// each started, still-parked thread, whose announce panics worldStopped,
// so the body's deferred calls have run and every runner is back on the
// free list before Run returns.
func (w *World) unwind() {
	w.stopped = true
	for _, t := range w.threads {
		if t.state != stateParked {
			continue
		}
		switch t.pending.Kind {
		case OpNone, OpBegin, OpExit, OpPanic:
			// The body has not started or has already returned.
		default:
			t.r.next()
		}
		t.done()
	}
}
