package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// goid returns the current goroutine's id, parsed from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// liveGoroutines counts goroutines other than idle pooled runners.
func liveGoroutines() int {
	idle.Lock()
	defer idle.Unlock()
	return runtime.NumGoroutine() - len(idle.runners)
}

// checkPool fails if the free list holds a runner whose coroutine ended.
func checkPool(t *testing.T) {
	t.Helper()
	idle.Lock()
	defer idle.Unlock()
	for _, r := range idle.runners {
		if r.ended {
			t.Fatal("the free list holds an ended runner")
		}
	}
}

// hostFault is the value a test Strategy or Listener panics with.
type hostFault struct{}

// TestHostFaultsSurfaceFromRun: a panic or runtime.Goexit raised by a
// Strategy or a Listener surfaces from Run on the caller's goroutine,
// whether it was raised there or on a thread's coroutine during a
// same-thread continuation. It is never taken for a program panic:
// the panic reaches the caller with its value and Run returns no
// outcome. Every thread is unwound (deferred calls run), no goroutine
// leaks, and the free list never holds a runner whose coroutine ended.
func TestHostFaultsSurfaceFromRun(t *testing.T) {
	for _, hook := range []string{"pick", "listener"} {
		for _, kind := range []string{"panic", "goexit"} {
			for _, onThread := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/thread=%v", hook, kind, onThread), func(t *testing.T) {
					for seed := int64(0); seed < 20; seed++ {
						hostFaultRun(t, hook, kind, onThread, seed)
					}
				})
			}
		}
	}
}

// hostFaultRun runs one two-thread program under a random schedule and
// raises the fault in hook at its first call from the wanted goroutine:
// the caller's, or, once four steps have run, a thread coroutine's.
func hostFaultRun(t *testing.T, hook, kind string, onThread bool, seed int64) {
	base := liveGoroutines()
	var (
		w        *World
		fired    bool
		returned bool
		caught   any
		unwound  = map[string]bool{}
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { caught = recover() }()
		caller := goid()
		maybeFire := func() {
			if fired || onThread && w.Step() < 4 || (goid() != caller) != onThread {
				return
			}
			fired = true
			if kind == "panic" {
				panic(hostFault{})
			}
			runtime.Goexit()
		}
		rs := NewRandomStrategy(seed)
		s := StrategyFunc(func(w *World, en []*Thread) *Thread {
			if hook == "pick" {
				maybeFire()
			}
			return rs.Pick(w, en)
		})
		loop := func(u *Thread) {
			defer func() { unwound[u.Name()] = true }()
			for {
				u.Yield("y")
			}
		}
		Run(func(th *Thread) {
			th.Go("w", loop, "m0")
			loop(th)
		}, s, Options{
			MaxSteps: 400,
			Setup:    func(nw *World) { w = nw },
			Listeners: []Listener{ListenerFunc(func(Event) {
				if hook == "listener" {
					maybeFire()
				}
			})},
		})
		returned = true
	}()
	<-done
	if !fired {
		t.Fatalf("seed %d: the fault never fired", seed)
	}
	if returned {
		t.Fatalf("seed %d: Run returned after a %s in a %s", seed, kind, hook)
	}
	if kind == "panic" && caught != (hostFault{}) {
		t.Fatalf("seed %d: Run's caller recovered %v, want the %s's panic", seed, caught, hook)
	}
	if kind == "goexit" && caught != nil {
		t.Fatalf("seed %d: Run's caller recovered %v after a Goexit", seed, caught)
	}
	for _, th := range w.Threads() {
		if !th.Terminated() {
			t.Fatalf("seed %d: %v not terminated", seed, th)
		}
		if th.Seq() > 0 && !unwound[th.Name()] {
			t.Fatalf("seed %d: %v's deferred call did not run", seed, th)
		}
	}
	checkPool(t)
	deadline := time.Now().Add(5 * time.Second)
	for liveGoroutines() > base {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: %d goroutines besides idle runners, %d before", seed, liveGoroutines(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSameThreadContinuation: when the strategy keeps picking the
// thread that just announced, its body continues on its own coroutine.
// Under FirstEnabled, a program whose threads never wait on each other
// makes no switch into any thread between its OpBegin and its OpExit.
func TestSameThreadContinuation(t *testing.T) {
	var l *Lock
	opts := Options{Setup: func(w *World) { l = w.NewLock("L") }}
	body := func(u *Thread) {
		for i := 0; i < 10; i++ {
			u.Lock(l, "a")
			u.Yield("b")
			u.Unlock(l, "c")
		}
	}
	prog := func(th *Thread) {
		th.Go("w", body, "m0")
		th.Go("w", body, "m1")
		body(th)
	}
	out, evs := collectEvents(t, prog, FirstEnabled{}, opts)
	if out.Kind != Terminated {
		t.Fatalf("outcome = %v", out)
	}
	if out.World.resumes != 0 {
		t.Fatalf("FirstEnabled run switched into threads %d times after their begin", out.World.resumes)
	}
	// 3 threads × (begin + 30 ops + exit), plus main's two starts.
	if len(evs) != 3*32+2 {
		t.Fatalf("%d events, want %d", len(evs), 3*32+2)
	}
	// The counter does count: round robin switches threads every step.
	if out := Run(prog, &RoundRobin{}, opts); out.Kind != Terminated || out.World.resumes == 0 {
		t.Fatalf("round robin: outcome %v, %d resumes", out, out.World.resumes)
	}
}
