package detect

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// randomLockProgram builds a random multithreaded lock program: some
// threads do nested pairs (cycle candidates), others do flat
// acquire/release traffic that the reduction should discard.
func randomLockProgram(progSeed int64) sim.Factory {
	return func() (sim.Program, sim.Options) {
		rng := rand.New(rand.NewSource(progSeed))
		nLocks := 3 + rng.Intn(3)
		locks := make([]*sim.Lock, nLocks)
		opts := sim.Options{Setup: func(w *sim.World) {
			for i := range locks {
				locks[i] = w.NewLock(fmt.Sprintf("L%d", i))
			}
		}}
		nNest := 2 + rng.Intn(2)
		nFlat := 1 + rng.Intn(3)
		type sec struct{ a, b int }
		secs := make([][]sec, nNest)
		for i := range secs {
			for s := 0; s < 1+rng.Intn(3); s++ {
				a := rng.Intn(nLocks)
				b := rng.Intn(nLocks)
				for b == a {
					b = rng.Intn(nLocks)
				}
				secs[i] = append(secs[i], sec{a, b})
			}
		}
		flatOps := make([][]int, nFlat)
		for i := range flatOps {
			for s := 0; s < 2+rng.Intn(5); s++ {
				flatOps[i] = append(flatOps[i], rng.Intn(nLocks))
			}
		}
		prog := func(th *sim.Thread) {
			var hs []*sim.Thread
			for i, ss := range secs {
				i, ss := i, ss
				hs = append(hs, th.Go("nest", func(u *sim.Thread) {
					for k, s := range ss {
						u.Lock(locks[s.a], fmt.Sprintf("n%d.%d.a", i, k))
						u.Lock(locks[s.b], fmt.Sprintf("n%d.%d.b", i, k))
						u.Unlock(locks[s.b], "ub")
						u.Unlock(locks[s.a], "ua")
					}
				}, "sp"))
			}
			for i, ops := range flatOps {
				i, ops := i, ops
				hs = append(hs, th.Go("flat", func(u *sim.Thread) {
					for k, l := range ops {
						u.Lock(locks[l], fmt.Sprintf("f%d.%d", i, k))
						u.Unlock(locks[l], "fu")
					}
				}, "sp"))
			}
			for _, h := range hs {
				th.Join(h, "j")
			}
		}
		return prog, opts
	}
}

// recordSeed records one run of f (any outcome except error).
func recordSeed(t *testing.T, f sim.Factory, seed int64) *trace.Trace {
	t.Helper()
	prog, opts := f()
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	out := sim.Run(prog, sim.NewRandomStrategy(seed), opts)
	if out.Kind == sim.ProgramError {
		t.Fatalf("outcome = %v", out)
	}
	return rec.Finish(seed)
}

// sigsOf canonicalizes a cycle list for comparison.
func sigsOf(cycles []*Cycle) []string {
	var out []string
	for _, c := range cycles {
		keys := make([]string, len(c.Tuples))
		for i, tp := range c.Tuples {
			keys[i] = tp.Key.String()
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprint(keys))
	}
	sort.Strings(out)
	return out
}

// TestReduceNeverChangesCycles: the MagicFuzzer reduction is a pure
// optimization — identical cycles with and without it, across many
// random programs and schedules.
func TestReduceNeverChangesCycles(t *testing.T) {
	for progSeed := int64(0); progSeed < 40; progSeed++ {
		f := randomLockProgram(progSeed)
		for schedSeed := int64(1); schedSeed <= 3; schedSeed++ {
			tr := recordSeed(t, f, schedSeed)
			with := sigsOf(Cycles(tr, Config{}))
			without := sigsOf(search(tr.Tuples, 0))
			if len(with) != len(without) {
				t.Fatalf("prog %d seed %d: %d cycles reduced vs %d unreduced",
					progSeed, schedSeed, len(with), len(without))
			}
			for i := range with {
				if with[i] != without[i] {
					t.Fatalf("prog %d seed %d: cycle sets differ", progSeed, schedSeed)
				}
			}
		}
	}
}

// TestReduceDiscardsFlatTraffic: tuples from flat acquire/release
// threads and one-sided nesting vanish.
func TestReduceDiscardsFlatTraffic(t *testing.T) {
	var a, b, c *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		a, b, c = w.NewLock("A"), w.NewLock("B"), w.NewLock("C")
	}}
	prog := func(th *sim.Thread) {
		// Real inversion on A/B.
		h1 := th.Go("x", func(u *sim.Thread) {
			u.Lock(a, "x1")
			u.Lock(b, "x2")
			u.Unlock(b, "x3")
			u.Unlock(a, "x4")
		}, "s")
		h2 := th.Go("y", func(u *sim.Thread) {
			u.Lock(b, "y1")
			u.Lock(a, "y2")
			u.Unlock(a, "y3")
			u.Unlock(b, "y4")
		}, "s")
		// One-sided nesting into C: nobody nests out of C, so these
		// tuples cannot close a cycle.
		h3 := th.Go("z", func(u *sim.Thread) {
			for i := 0; i < 5; i++ {
				u.Lock(a, "z1")
				u.Lock(c, "z2")
				u.Unlock(c, "z3")
				u.Unlock(a, "z4")
			}
		}, "s")
		th.Join(h1, "j1")
		th.Join(h2, "j2")
		th.Join(h3, "j3")
	}
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	out := sim.Run(prog, sim.FirstEnabled{}, opts)
	if out.Kind != sim.Terminated {
		t.Fatalf("outcome = %v", out)
	}
	tr := rec.Finish(0)
	reduced := Reduce(tr.Tuples)
	// Only x's and y's nested tuples survive: z's C-nesting is
	// one-sided (z holds A wanting C, but nothing holds C wanting A or
	// anything z holds... note z holding A wanted by y survives only if
	// its want side is satisfiable: C is never held by others).
	for _, tp := range reduced {
		if tp.Thread == "main/z.0" {
			t.Errorf("one-sided tuple survived reduction: %v", tp)
		}
	}
	if len(reduced) != 2 {
		t.Errorf("reduced to %d tuples, want 2 (the A/B inversion)", len(reduced))
	}
	// And the cycles are unchanged.
	if got := len(Cycles(tr, Config{})); got != 1 {
		t.Errorf("cycles = %d, want 1", got)
	}
}

// BenchmarkDetectReduction measures the chain search with and without
// the reduction on a traffic-heavy trace.
func BenchmarkDetectReduction(b *testing.B) {
	f := func() (sim.Program, sim.Options) {
		var locks []*sim.Lock
		opts := sim.Options{Setup: func(w *sim.World) {
			for i := 0; i < 9; i++ {
				locks = append(locks, w.NewLock(fmt.Sprintf("L%d", i)))
			}
		}}
		prog := func(th *sim.Thread) {
			var hs []*sim.Thread
			// One real inversion.
			hs = append(hs, th.Go("x", func(u *sim.Thread) {
				u.Lock(locks[0], "x1")
				u.Lock(locks[1], "x2")
				u.Unlock(locks[1], "x3")
				u.Unlock(locks[0], "x4")
			}, "s"))
			hs = append(hs, th.Go("y", func(u *sim.Thread) {
				u.Lock(locks[1], "y1")
				u.Lock(locks[0], "y2")
				u.Unlock(locks[0], "y3")
				u.Unlock(locks[1], "y4")
			}, "s"))
			// Acyclic chain traffic: thread w nests lock w → lock w+1,
			// many times. The chains never close into a cycle, but an
			// unreduced search walks every deep L2→L3→L4→… combination
			// from each of the repeated tuples; the reduction collapses
			// the whole family from both ends before the search starts.
			for w := 2; w < 7; w++ {
				w := w
				hs = append(hs, th.Go("noise", func(u *sim.Thread) {
					for i := 0; i < 20; i++ {
						u.Lock(locks[w], fmt.Sprintf("n%d.%d", w, i))
						u.Lock(locks[w+1], fmt.Sprintf("m%d.%d", w, i))
						u.Unlock(locks[w+1], "u1")
						u.Unlock(locks[w], "u2")
					}
				}, "s"))
			}
			for _, h := range hs {
				th.Join(h, "j")
			}
		}
		return prog, opts
	}
	prog, opts := f()
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	sim.Run(prog, sim.FirstEnabled{}, opts)
	tr := rec.Finish(0)
	b.Run("Reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Cycles(tr, Config{})
		}
	})
	b.Run("Unreduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search(tr.Tuples, 0)
		}
	})
}

// chainTuples builds a synthetic removal-cascade input: thread ti holds
// Li and wants Li+1. Nobody wants L0 and nobody holds Ln, so reduction
// peels one tuple from each end per round — the worst case for a
// rebuild-per-round fixpoint, which goes quadratic here.
func chainTuples(n int) []*trace.Tuple {
	out := make([]*trace.Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = &trace.Tuple{
			Thread: fmt.Sprintf("t%d", i),
			Lock:   fmt.Sprintf("L%d", i+1),
			Held:   []trace.HeldLock{{Lock: fmt.Sprintf("L%d", i)}},
		}
	}
	return out
}

// TestReduceChainCascade: the whole chain is reduced away, regardless of
// how incremental the fixpoint is.
func TestReduceChainCascade(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 64} {
		if got := Reduce(chainTuples(n)); len(got) != 0 {
			t.Fatalf("n=%d: %d tuples survived a pure chain", n, len(got))
		}
	}
}

// BenchmarkReduce measures the reduction fixpoint on cascade-heavy
// synthetic inputs where each round only unlocks a little more work.
func BenchmarkReduce(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			tuples := chainTuples(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := Reduce(tuples); len(got) != 0 {
					b.Fatal("chain should reduce to nothing")
				}
			}
		})
	}
}
