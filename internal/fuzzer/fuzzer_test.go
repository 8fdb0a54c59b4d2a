package fuzzer

import (
	"testing"

	"wolf/internal/detect"
	"wolf/internal/replay"
	"wolf/internal/sdg"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

func TestThreadAbs(t *testing.T) {
	cases := map[string]string{
		"main":            "main",
		"main/w.0":        "main/w",
		"main/w.1":        "main/w",
		"main/w.0/x.3":    "main/w/x",
		"main/pool.2/t.0": "main/pool/t",
	}
	for in, want := range cases {
		if got := ThreadAbs(in); got != want {
			t.Errorf("ThreadAbs(%q) = %q, want %q", in, got, want)
		}
	}
	if ThreadAbs("main/w.0") != ThreadAbs("main/w.1") {
		t.Error("twin threads must share an abstraction")
	}
}

func TestLockAbs(t *testing.T) {
	cases := map[string]string{
		"G":             "G",
		"mutex#SM1":     "mutex",
		"mutex#SM2":     "mutex",
		"mu@main.0":     "mu@main",
		"mu@main/w.0.1": "mu@main/w",
		"mu@main/w.1.0": "mu@main/w",
	}
	for in, want := range cases {
		if got := LockAbs(in); got != want {
			t.Errorf("LockAbs(%q) = %q, want %q", in, got, want)
		}
	}
	if LockAbs("mutex#SM1") != LockAbs("mutex#SM2") {
		t.Error("same-site lock instances must share an abstraction")
	}
}

// analyze records a sequential run and returns the trace and cycles.
func analyze(t *testing.T, f sim.Factory) (*trace.Trace, []*detect.Cycle) {
	t.Helper()
	prog, opts := f()
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	out := sim.Run(prog, sim.FirstEnabled{}, opts)
	if out.Kind == sim.ProgramError {
		t.Fatalf("outcome = %v", out)
	}
	tr := rec.Finish(0)
	return tr, detect.Cycles(tr, detect.Config{})
}

func cycleBySig(t *testing.T, cycles []*detect.Cycle, sig string) *detect.Cycle {
	t.Helper()
	for _, c := range cycles {
		if c.Signature() == sig {
			return c
		}
	}
	t.Fatalf("cycle %s not found (have %v)", sig, cycles)
	return nil
}

// simpleFactory: a deadlock between threads of distinct abstractions —
// DeadlockFuzzer's good case.
func simpleFactory() (sim.Program, sim.Options) {
	var a, b *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		a, b = w.NewLock("A"), w.NewLock("B")
	}}
	prog := func(th *sim.Thread) {
		h1 := th.Go("left", func(u *sim.Thread) {
			u.Yield("pre1")
			u.Lock(a, "L1")
			u.Lock(b, "L2")
			u.Unlock(b, "L3")
			u.Unlock(a, "L4")
		}, "m1")
		h2 := th.Go("right", func(u *sim.Thread) {
			u.Yield("pre2")
			u.Lock(b, "R1")
			u.Lock(a, "R2")
			u.Unlock(a, "R3")
			u.Unlock(b, "R4")
		}, "m2")
		th.Join(h1, "m3")
		th.Join(h2, "m4")
	}
	return prog, opts
}

// TestFuzzerReproducesSimpleDeadlock: with distinct abstractions the
// baseline works well — it must, or the comparison would be a strawman.
func TestFuzzerReproducesSimpleDeadlock(t *testing.T) {
	_, cycles := analyze(t, simpleFactory)
	c := cycleBySig(t, cycles, "L2+R2")
	hits := 0
	for seed := int64(0); seed < 40; seed++ {
		if Hit(Attempt(simpleFactory, c, seed, 0), c) {
			hits++
		}
	}
	// Probabilistic pausing caps the per-run hit rate below 1; the
	// baseline must still succeed on a clear majority of runs here.
	if hits < 24 {
		t.Fatalf("fuzzer hit %d/40, want >= 24 on its good case", hits)
	}
}

// figure9Factory models the paper's Figure 9: two threads created at the
// same site (same abstraction), operating on two same-site collection
// mutexes. t2 first executes the same addAll sequence as t1 (in mirrored
// order), then the removeAll that completes the real deadlock.
func figure9Factory() (sim.Program, sim.Options) {
	var sc1, sc2 *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		sc1 = w.NewLock("SC.mutex#1")
		sc2 = w.NewLock("SC.mutex#2")
	}}
	addAll := func(dst, src *sim.Lock) sim.Program {
		return func(u *sim.Thread) {
			u.Lock(dst, "1591")
			u.Lock(src, "1570") // toArray on the source
			u.Unlock(src, "1571")
			u.Unlock(dst, "1592")
		}
	}
	removeAll := func(dst, src *sim.Lock) sim.Program {
		return func(u *sim.Thread) {
			u.Lock(dst, "1594")
			u.Lock(src, "1567") // contains on the source
			u.Unlock(src, "1568")
			u.Unlock(dst, "1595")
		}
	}
	prog := func(th *sim.Thread) {
		t1 := th.Go("worker", func(u *sim.Thread) {
			addAll(sc1, sc2)(u)
		}, "spawn")
		t2 := th.Go("worker", func(u *sim.Thread) {
			addAll(sc2, sc1)(u) // the prelude that confuses DF
			removeAll(sc2, sc1)(u)
		}, "spawn")
		th.Join(t1, "j1")
		th.Join(t2, "j2")
	}
	return prog, opts
}

// TestFigure9: WOLF reliably reproduces the 1570+1567 deadlock that
// DeadlockFuzzer (abstraction collision: both workers match the paused
// component during the prelude) essentially never does — the paper's
// headline qualitative result.
func TestFigure9(t *testing.T) {
	tr, cycles := analyze(t, figure9Factory)
	target := cycleBySig(t, cycles, "1567+1570")

	g := sdg.Build(target, tr)
	if g.Cyclic(sdg.AllKinds) {
		t.Fatalf("target Gs cyclic:\n%v", g)
	}
	wolfHits, dfHits := 0, 0
	const runs = 40
	for seed := int64(0); seed < runs; seed++ {
		if replay.Hit(replay.Attempt(figure9Factory, g, target, seed, 0), target) {
			wolfHits++
		}
		if Hit(Attempt(figure9Factory, target, seed, 0), target) {
			dfHits++
		}
	}
	if wolfHits < runs*3/4 {
		t.Errorf("WOLF hit %d/%d, want >= %d", wolfHits, runs, runs*3/4)
	}
	if dfHits > runs/4 {
		t.Errorf("DF hit %d/%d, want <= %d (abstraction collision)", dfHits, runs, runs/4)
	}
	if dfHits >= wolfHits {
		t.Errorf("DF (%d) should underperform WOLF (%d) on Figure 9", dfHits, wolfHits)
	}
}

// figure2Factory: the paper's Figure 2 scenario (shared with other
// packages' tests).
func figure2Factory() (sim.Program, sim.Options) {
	var m1, m2 *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		m1, m2 = w.NewLock("mutex#SM1"), w.NewLock("mutex#SM2")
	}}
	equals := func(mine, other *sim.Lock) sim.Program {
		return func(u *sim.Thread) {
			u.Lock(mine, "2024")
			u.Lock(other, "509")
			u.Unlock(other, "509u")
			u.Lock(other, "522")
			u.Unlock(other, "522u")
			u.Unlock(mine, "2025")
		}
	}
	prog := func(th *sim.Thread) {
		h1 := th.Go("t1", equals(m1, m2), "s1")
		h2 := th.Go("t2", equals(m2, m1), "s2")
		th.Join(h1, "j1")
		th.Join(h2, "j2")
	}
	return prog, opts
}

// TestFigure2Theta2Comparison: the mixed 509+522 deadlock — WOLF's
// trace-ordered replay beats DF's randomized pausing (the paper's
// Section 2 motivation).
func TestFigure2Theta2Comparison(t *testing.T) {
	tr, cycles := analyze(t, figure2Factory)
	target := cycleBySig(t, cycles, "509+522")
	g := sdg.Build(target, tr)
	wolfHits, dfHits := 0, 0
	const runs = 40
	for seed := int64(0); seed < runs; seed++ {
		if replay.Hit(replay.Attempt(figure2Factory, g, target, seed, 0), target) {
			wolfHits++
		}
		if Hit(Attempt(figure2Factory, target, seed, 0), target) {
			dfHits++
		}
	}
	if wolfHits <= dfHits {
		t.Errorf("WOLF (%d/%d) should beat DF (%d/%d) on θ2", wolfHits, runs, dfHits, runs)
	}
	if wolfHits < runs*3/4 {
		t.Errorf("WOLF hit %d/%d, want >= %d", wolfHits, runs, runs*3/4)
	}
}

// TestFuzzerTerminatesOnImpossibleCycle: targeting the infeasible θ4
// must not hang or hit.
func TestFuzzerTerminatesOnImpossibleCycle(t *testing.T) {
	_, cycles := analyze(t, figure2Factory)
	c := cycleBySig(t, cycles, "522+522")
	for seed := int64(0); seed < 10; seed++ {
		out := Attempt(figure2Factory, c, seed, 20000)
		if out.Kind == sim.StepLimit {
			t.Fatalf("seed %d: fuzzer hit step limit", seed)
		}
		if Hit(out, c) {
			t.Fatalf("seed %d: impossible deadlock reproduced", seed)
		}
	}
}

// TestReproduceAndHitRate: the driver APIs behave like replay's.
func TestReproduceAndHitRate(t *testing.T) {
	_, cycles := analyze(t, simpleFactory)
	c := cycleBySig(t, cycles, "L2+R2")
	res := Reproduce(simpleFactory, c, Config{Attempts: 10})
	if !res.Reproduced {
		t.Fatalf("not reproduced: %v", res.LastOutcome)
	}
	hr := HitRate(simpleFactory, c, 20, Config{})
	if hr < 0.8 {
		t.Fatalf("hit rate = %v, want >= 0.8", hr)
	}
}

// TestPickAllocatesNothing: once a run's thread and lock abstractions
// are cached, a DeadlockFuzzer scheduling step allocates nothing. The
// probe measures Pick at the first step with two enabled threads.
func TestPickAllocatesNothing(t *testing.T) {
	_, cycles := analyze(t, simpleFactory)
	st := newStrategy(cycleBySig(t, cycles, "L2+R2"), 1)
	allocs := -1.0
	probe := sim.StrategyFunc(func(w *sim.World, en []*sim.Thread) *sim.Thread {
		if allocs < 0 && len(en) > 1 {
			allocs = testing.AllocsPerRun(100, func() { st.Pick(w, en) })
		}
		return st.Pick(w, en)
	})
	prog, opts := simpleFactory()
	sim.Run(prog, probe, opts)
	if allocs != 0 {
		t.Fatalf("allocs per Pick = %v, want 0 (-1: no step had two enabled threads)", allocs)
	}
}
