package sim

import (
	"iter"
	"sync"
)

// maxIdleRunners bounds the process-wide free list of idle runners. A
// runner released while the list is full is stopped, which ends its
// goroutine, so idle goroutines never exceed this many.
const maxIdleRunners = 256

// runner is a coroutine that runs simulated thread bodies, one at a
// time. The world switches into it with next and the thread switches
// back by yielding from announce, so a scheduling step is one coroutine
// switch each way. Between threads it parks idle on the free list and
// keeps its grown stack for the next run.
type runner struct {
	t     *Thread // the assigned thread
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// idle is the free list of parked runners, shared by every world. It is
// a bounded slice rather than a sync.Pool because a runner dropped by
// the garbage collector would leak its goroutine.
var idle struct {
	sync.Mutex
	runners []*runner
}

// getRunner assigns t to an idle runner, creating one when the free
// list is empty. The runner enters t's body on its next switch.
func getRunner(t *Thread) *runner {
	idle.Lock()
	var r *runner
	if n := len(idle.runners); n > 0 {
		r = idle.runners[n-1]
		idle.runners[n-1] = nil
		idle.runners = idle.runners[:n-1]
	}
	idle.Unlock()
	if r == nil {
		r = new(runner)
		r.next, r.stop = iter.Pull(r.loop)
	}
	r.t = t
	return r
}

// loop is the coroutine body: run the assigned thread, then park idle
// until the next assignment or until stop. The idle park doubles as the
// thread's last hand-off: its OpExit or OpPanic, or the end of an
// unwind.
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		r.t.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// release returns a parked runner to the free list, or stops it when
// the list is full.
func (r *runner) release() {
	r.t = nil
	idle.Lock()
	if len(idle.runners) < maxIdleRunners {
		idle.runners = append(idle.runners, r)
		r = nil
	}
	idle.Unlock()
	if r != nil {
		r.stop()
	}
}
