// Package sim provides a deterministic, cooperative user-level scheduler
// for multithreaded programs built from locks, thread starts and joins.
//
// It is the execution substrate for the WOLF deadlock analysis (Samak and
// Ramanathan, "Trace Driven Dynamic Deadlock Detection and Reproduction",
// PPoPP 2014). The paper instruments JVM threads; Go does not expose
// goroutine scheduling, so sim serializes execution at exactly the
// operations the analysis observes — Lock, Unlock, Start (Go), Join and
// Yield — and hands the scheduling decision to a pluggable Strategy.
//
// Execution model. Every simulated thread runs on a pooled coroutine
// (an iter.Pull runner) and only one thread executes at a time. Before
// each visible operation the thread parks and publishes the pending
// operation; nothing executes until a Strategy picks the thread. This
// "announce before execute" protocol is what lets a replayer pause a
// thread immediately before a lock acquisition, and makes runtime
// deadlock detection exact: when no thread is enabled and some are
// blocked on locks or joins, the run has deadlocked.
//
// The announcing thread makes the next scheduling decision itself, on
// its own coroutine, with the same code the World's loop runs. When the
// Strategy picks that same thread, the operation's effect and the
// listeners run right there and the body continues with no switch.
// Otherwise the thread leaves the decision (another thread, or the
// run's ending) to the World and switches to it once; the World applies
// it without deciding again and switches to the picked thread. The
// Strategy sees the same enabled lists and listeners the same events,
// in the same order, on either path. A thread's OpBegin and OpExit
// always execute on the World's goroutine, the caller's of Run. A
// panic or runtime.Goexit from a Strategy or Listener surfaces from Run
// on that goroutine, wherever it was raised; it is never taken for a
// program panic. Runners outlive runs: an exited thread's runner returns
// to a bounded free list, and a run that ends early unwinds its parked
// threads, deferred calls included, before Run returns.
//
// Identity. Threads, locks and operations have stable identities that are
// reproducible across schedules as long as per-thread control flow is
// deterministic: a thread's name is its creation path (for example
// "main/worker.1"), a lock's name is chosen at allocation, and every
// executed operation has an execution index (thread name, per-thread
// sequence number). These are the identities the WOLF algorithms use to
// relate a recorded trace to a replayed run.
//
// A minimal program:
//
//	var la, lb *sim.Lock
//	opts := sim.Options{Setup: func(w *sim.World) {
//		la, lb = w.NewLock("A"), w.NewLock("B")
//	}}
//	prog := func(t *sim.Thread) {
//		h := t.Go("w", func(u *sim.Thread) {
//			u.Lock(lb, "w:1")
//			u.Lock(la, "w:2")
//			u.Unlock(la, "w:3")
//			u.Unlock(lb, "w:4")
//		}, "main:1")
//		t.Lock(la, "main:2")
//		t.Lock(lb, "main:3")
//		t.Unlock(lb, "main:4")
//		t.Unlock(la, "main:5")
//		t.Join(h, "main:6")
//	}
//	out := sim.Run(prog, sim.NewRandomStrategy(1), opts)
//
// Depending on the schedule the run either terminates normally or
// deadlocks; out reports which, along with the blocked operations.
package sim
