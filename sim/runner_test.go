package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestAbortWithDeferredOpDoesNotLeak: a thread body that defers an
// operation still unwinds when the world aborts the run. The deferred
// call's operation panics on the stopped thread, and that panic is part
// of the unwind, not a program panic that would wedge the runner. So
// every thread reads Terminated when Run returns, and the only
// goroutines aborted runs leave behind are idle runners, at most the
// free list's bound.
func TestAbortWithDeferredOpDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	var l *Lock
	opts := Options{MaxSteps: 50, Setup: func(w *World) { l = w.NewLock("L") }}
	spin := func(u *Thread) {
		u.Lock(l, "s1")
		defer u.Unlock(l, "s2")
		for {
			u.Yield("s")
		}
	}
	prog := func(th *Thread) {
		defer th.Yield("m0")
		th.Go("a", spin, "m1")
		th.Go("b", spin, "m2")
		for {
			th.Yield("m")
		}
	}
	for i := 0; i < 200; i++ {
		out := Run(prog, NewRandomStrategy(int64(i)), opts)
		if out.Kind != StepLimit {
			t.Fatalf("run %d: outcome = %v", i, out)
		}
		for _, th := range out.World.Threads() {
			if !th.Terminated() {
				t.Fatalf("run %d: %v not terminated after Run returned", i, th)
			}
		}
	}
	if n := runtime.NumGoroutine(); n > before+maxIdleRunners {
		t.Fatalf("goroutines: %d before, %d after 200 aborted runs (free list bound %d)", before, n, maxIdleRunners)
	}
}

// TestAbortUnwindsBeforeRunReturns: the unwind of an aborted run is
// synchronous. A deferred plain-Go write in a parked thread has happened
// by the time Run returns, whether the run hit the step limit or
// deadlocked.
func TestAbortUnwindsBeforeRunReturns(t *testing.T) {
	for i := 0; i < 50; i++ {
		var l1, l2 *Lock
		unwound := map[string]bool{}
		worker := func(first, second **Lock, site string) Program {
			return func(u *Thread) {
				defer func() { unwound[u.Name()] = true }()
				u.Lock(*first, site+"1")
				u.Lock(*second, site+"2")
				for {
					u.Yield(site + "y")
				}
			}
		}
		prog := func(th *Thread) {
			th.Go("a", worker(&l1, &l2, "a"), "m1")
			th.Go("b", worker(&l2, &l1, "b"), "m2")
		}
		out := Run(prog, NewRandomStrategy(int64(i)), Options{
			MaxSteps: 30,
			Setup:    func(w *World) { l1, l2 = w.NewLock("L1"), w.NewLock("L2") },
		})
		if out.Kind != StepLimit && out.Kind != Deadlocked {
			t.Fatalf("run %d: outcome = %v", i, out)
		}
		for _, th := range out.World.Threads()[1:] {
			if !unwound[th.Name()] {
				t.Fatalf("run %d (%v): %s's deferred write not visible after Run returned", i, out.Kind, th.Name())
			}
		}
	}
}

// poolCase is one program shape for TestRunnerPoolConcurrentWorlds; run
// executes it under the given seed and renders the outcome and the
// full event sequence.
type poolCase struct {
	name string
	run  func(seed int64) string
}

// recordRun runs prog and renders the outcome and every event.
func recordRun(prog Program, s Strategy, opts Options) string {
	var evs []Event
	opts.Listeners = []Listener{ListenerFunc(func(ev Event) { evs = append(evs, ev) })}
	out := Run(prog, s, opts)
	return fmt.Sprintf("%v|%d|%v|%v|%v|%s", out.Kind, out.Steps, out.Err, out.Blocked, out.EnabledAtHalt, traceString(evs))
}

// lockOrder is the two-thread lock-order inversion: terminated or
// deadlocked depending on the schedule.
func lockOrder(body func(u *Thread)) (Program, Options) {
	var l1, l2 *Lock
	opts := Options{Setup: func(w *World) { l1, l2 = w.NewLock("L1"), w.NewLock("L2") }}
	prog := func(th *Thread) {
		h := th.Go("w", func(u *Thread) {
			u.Lock(l2, "w1")
			u.Lock(l1, "w2")
			body(u)
			u.Unlock(l1, "w3")
			u.Unlock(l2, "w4")
		}, "m0")
		th.Lock(l1, "m1")
		th.Lock(l2, "m2")
		th.Unlock(l2, "m3")
		th.Unlock(l1, "m4")
		th.Join(h, "m5")
	}
	return prog, opts
}

func poolCases() []poolCase {
	return []poolCase{
		{"terminated-or-deadlocked", func(seed int64) string {
			prog, opts := lockOrder(func(u *Thread) { u.Yield("w") })
			return recordRun(prog, NewRandomStrategy(seed), opts)
		}},
		{"mix", func(seed int64) string {
			prog, opts := mixProgram()
			return recordRun(prog, NewRandomStrategy(seed), opts)
		}},
		{"step-limit", func(seed int64) string {
			prog := func(th *Thread) {
				th.Go("spin", func(u *Thread) {
					defer u.Yield("d")
					for {
						u.Yield("s")
					}
				}, "m1")
				for {
					th.Yield("m")
				}
			}
			return recordRun(prog, NewRandomStrategy(seed), Options{MaxSteps: 40 + int(seed%7)})
		}},
		{"halted", func(seed int64) string {
			prog, opts := lockOrder(func(u *Thread) { u.Yield("w") })
			rs := NewRandomStrategy(seed)
			picks := 0
			halt := StrategyFunc(func(w *World, en []*Thread) *Thread {
				if picks++; picks > 3+int(seed%5) {
					return nil
				}
				return rs.Pick(w, en)
			})
			return recordRun(prog, halt, opts)
		}},
		{"program-panic", func(seed int64) string {
			prog, opts := lockOrder(func(u *Thread) { panic("boom") })
			return recordRun(prog, NewRandomStrategy(seed), opts)
		}},
		{"program-error", func(seed int64) string {
			var l *Lock
			prog := func(th *Thread) {
				th.Go("w", func(u *Thread) {
					u.Yield("w1")
					u.Unlock(l, "w2") // not held: program error
				}, "m0")
				th.Lock(l, "m1")
				th.Yield("m2")
				th.Unlock(l, "m3")
			}
			return recordRun(prog, NewRandomStrategy(seed), Options{Setup: func(w *World) { l = w.NewLock("L") }})
		}},
	}
}

// TestRunnerPoolConcurrentWorlds: worlds on many goroutines share the
// runner free list. Every run, whatever its outcome, must match a
// sequential reference run of the same case and seed, event for event.
// Run it under -race: the pool hands runners between goroutines.
func TestRunnerPoolConcurrentWorlds(t *testing.T) {
	const seeds = 40
	cases := poolCases()
	ref := make([][]string, len(cases))
	ended := map[string]bool{}
	for ci, c := range cases {
		for s := int64(0); s < seeds; s++ {
			r := c.run(s)
			ref[ci] = append(ref[ci], r)
			ended[strings.SplitN(r, "|", 2)[0]] = true
		}
	}
	for _, k := range []OutcomeKind{Terminated, Deadlocked, StepLimit, Halted, ProgramError} {
		if !ended[k.String()] {
			t.Fatalf("no reference run ended %v", k)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(cases)*seeds; i++ {
				// Each goroutine walks the runs in its own order.
				k := (i*7 + g*13) % (len(cases) * seeds)
				ci, s := k%len(cases), int64(k/len(cases))
				if got := cases[ci].run(s); got != ref[ci][s] {
					t.Errorf("goroutine %d, %s seed %d:\n got %s\nwant %s", g, cases[ci].name, s, got, ref[ci][s])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
