package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkStepThroughput measures raw scheduler throughput: one thread
// spinning on yields (pure announce/execute round trips).
func BenchmarkStepThroughput(b *testing.B) {
	prog := func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Yield("spin")
		}
	}
	b.ReportAllocs()
	out := Run(prog, FirstEnabled{}, Options{MaxSteps: b.N + 16})
	if out.Kind != Terminated && out.Kind != StepLimit {
		b.Fatalf("outcome = %v", out)
	}
}

// BenchmarkLockUnlock measures the lock/unlock pair cost including event
// dispatch to one listener.
func BenchmarkLockUnlock(b *testing.B) {
	var l *Lock
	count := 0
	prog := func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Lock(l, "a")
			t.Unlock(l, "b")
		}
	}
	b.ReportAllocs()
	out := Run(prog, FirstEnabled{}, Options{
		Setup:     func(w *World) { l = w.NewLock("L") },
		MaxSteps:  2*b.N + 16,
		Listeners: []Listener{ListenerFunc(func(Event) { count++ })},
	})
	if out.Kind != Terminated && out.Kind != StepLimit {
		b.Fatalf("outcome = %v", out)
	}
}

// BenchmarkContextSwitch measures ping-pong between two threads through
// a contended lock (worst-case switch density).
func BenchmarkContextSwitch(b *testing.B) {
	var l *Lock
	prog := func(t *Thread) {
		h := t.Go("peer", func(u *Thread) {
			for i := 0; i < b.N; i++ {
				u.Lock(l, "p1")
				u.Unlock(l, "p2")
			}
		}, "m0")
		for i := 0; i < b.N; i++ {
			t.Lock(l, "m1")
			t.Unlock(l, "m2")
		}
		t.Join(h, "m3")
	}
	b.ReportAllocs()
	out := Run(prog, &RoundRobin{}, Options{
		Setup:    func(w *World) { l = w.NewLock("L") },
		MaxSteps: 8*b.N + 64,
	})
	if out.Kind != Terminated && out.Kind != StepLimit {
		b.Fatalf("outcome = %v", out)
	}
}

// BenchmarkSpawnJoin measures thread lifecycle cost.
func BenchmarkSpawnJoin(b *testing.B) {
	prog := func(t *Thread) {
		for i := 0; i < b.N; i++ {
			h := t.Go("child", func(u *Thread) {}, "m0")
			t.Join(h, "m1")
		}
	}
	b.ReportAllocs()
	out := Run(prog, FirstEnabled{}, Options{MaxSteps: 8*b.N + 64})
	if out.Kind != Terminated && out.Kind != StepLimit {
		b.Fatalf("outcome = %v", out)
	}
}

// BenchmarkManyThreadsFanout measures scheduling with wide enabled sets.
func BenchmarkManyThreadsFanout(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			iters := b.N/n + 1
			prog := func(t *Thread) {
				var hs []*Thread
				for i := 0; i < n; i++ {
					hs = append(hs, t.Go("w", func(u *Thread) {
						for j := 0; j < iters; j++ {
							u.Yield("y")
						}
					}, "m0"))
				}
				for _, h := range hs {
					t.Join(h, "m1")
				}
			}
			b.ReportAllocs()
			out := Run(prog, NewRandomStrategy(1), Options{MaxSteps: n*iters + 4*n + 64})
			if out.Kind != Terminated && out.Kind != StepLimit {
				b.Fatalf("outcome = %v", out)
			}
		})
	}
}

// benchSink keeps benchmarked draws observable.
var benchSink int

// BenchmarkNewRand measures the fixed cost of one seeded schedule
// source plus a short run's worth of draws, against math/rand's eager
// seeding. Every simulated execution pays it at least once.
func BenchmarkNewRand(b *testing.B) {
	for _, src := range []struct {
		name string
		new  func(seed int64) *rand.Rand
	}{
		{"sim", NewRand},
		{"math-rand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		for _, draws := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("%s/draws=%d", src.name, draws), func(b *testing.B) {
				b.ReportAllocs()
				var seed int64
				for b.Loop() {
					seed++
					r := src.new(seed)
					for j := 0; j < draws; j++ {
						benchSink += r.Intn(3)
					}
				}
			})
		}
	}
}

// BenchmarkShortRun measures the per-execution fixed cost the paper's
// re-execution loops pay: one fresh world under a fresh random
// strategy, running a two-thread lock-order program of about a dozen
// steps to completion or deadlock.
func BenchmarkShortRun(b *testing.B) {
	var l1, l2 *Lock
	prog := func(t *Thread) {
		h := t.Go("w", func(u *Thread) {
			u.Lock(l2, "w1")
			u.Lock(l1, "w2")
			u.Unlock(l1, "w3")
			u.Unlock(l2, "w4")
		}, "m0")
		t.Lock(l1, "m1")
		t.Lock(l2, "m2")
		t.Unlock(l2, "m3")
		t.Unlock(l1, "m4")
		t.Join(h, "m5")
	}
	opts := Options{Setup: func(w *World) {
		l1 = w.NewLock("L1")
		l2 = w.NewLock("L2")
	}}
	b.ReportAllocs()
	var seed int64
	for b.Loop() {
		seed++
		out := Run(prog, NewRandomStrategy(seed), opts)
		if out.Kind != Terminated && out.Kind != Deadlocked {
			b.Fatalf("outcome = %v", out)
		}
	}
}

// BenchmarkAbortedRun measures a run that ends in a deadlock, the shape
// of most replay and fuzzer attempts: two threads take two locks in
// opposite orders under a round-robin schedule that interleaves their
// first acquisitions, and Run then unwinds both parked threads.
func BenchmarkAbortedRun(b *testing.B) {
	prog, opts := lockOrder(func(*Thread) {})
	b.ReportAllocs()
	for b.Loop() {
		if out := Run(prog, &RoundRobin{}, opts); out.Kind != Deadlocked {
			b.Fatalf("outcome = %v", out)
		}
	}
}
