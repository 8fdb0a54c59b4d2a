package replay

import (
	"testing"

	"wolf/internal/detect"
	"wolf/internal/sdg"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// fig4Factory rebuilds the paper's Figure 4 program on every call.
func fig4Factory() (sim.Program, sim.Options) {
	var l1, l2, l3 *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		l1, l2, l3 = w.NewLock("l1"), w.NewLock("l2"), w.NewLock("l3")
	}}
	t3body := func(u *sim.Thread) {
		u.Lock(l3, "31")
		u.Lock(l2, "32")
		u.Lock(l1, "33")
		u.Unlock(l1, "34")
		u.Unlock(l2, "35")
		u.Unlock(l3, "36")
	}
	prog := func(th *sim.Thread) {
		th.Lock(l1, "11")
		th.Lock(l2, "12")
		th.Unlock(l2, "13")
		th.Unlock(l1, "14")
		th.Go("t2", func(u *sim.Thread) { u.Go("t3", t3body, "21") }, "15")
		th.Lock(l3, "16")
		th.Unlock(l3, "17")
		th.Lock(l1, "18")
		th.Lock(l2, "19")
		th.Unlock(l2, "20")
		th.Unlock(l1, "21")
	}
	return prog, opts
}

// analyze records a sequential run of f and returns the trace and cycles.
func analyze(t *testing.T, f Factory) (*trace.Trace, []*detect.Cycle) {
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

// cycleBySig finds the cycle with the given signature.
func cycleBySig(t *testing.T, cycles []*detect.Cycle, sig string) *detect.Cycle {
	t.Helper()
	for _, c := range cycles {
		if c.Signature() == sig {
			return c
		}
	}
	t.Fatalf("cycle %s not found in %v", sig, cycles)
	return nil
}

// TestReplayFigure4Theta2: the Gs-driven replay reproduces θ2 on every
// seed — the paper's Section 3.5 walkthrough.
func TestReplayFigure4Theta2(t *testing.T) {
	tr, cycles := analyze(t, fig4Factory)
	c := cycleBySig(t, cycles, "19+33")
	g := sdg.Build(c, tr)
	for seed := int64(0); seed < 20; seed++ {
		out := Attempt(fig4Factory, g, c, seed, 0)
		if !Hit(out, c) {
			t.Fatalf("seed %d: replay missed θ2: %v", seed, out)
		}
	}
}

// TestHitRateFigure4: hit rate of θ2 is 1.0 — the dependency graph pins
// the schedule completely for this program.
func TestHitRateFigure4(t *testing.T) {
	tr, cycles := analyze(t, fig4Factory)
	c := cycleBySig(t, cycles, "19+33")
	g := sdg.Build(c, tr)
	if hr := HitRate(fig4Factory, g, c, 50, Config{}); hr != 1.0 {
		t.Fatalf("hit rate = %v, want 1.0", hr)
	}
}

// figure2Factory rebuilds the Figure 2 synchronized-maps scenario.
func figure2Factory() (sim.Program, sim.Options) {
	var m1, m2 *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		m1, m2 = w.NewLock("SM1.mutex"), w.NewLock("SM2.mutex")
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

// TestReplayFigure2Theta2: θ2 (one thread at 509, the other at 522) is
// the deadlock the paper's Section 2 shows randomized replay biases
// against; the Gs-driven replay reproduces it reliably.
func TestReplayFigure2Theta2(t *testing.T) {
	tr, cycles := analyze(t, figure2Factory)
	c := cycleBySig(t, cycles, "509+522")
	g := sdg.Build(c, tr)
	hits := 0
	for seed := int64(0); seed < 30; seed++ {
		if Hit(Attempt(figure2Factory, g, c, seed, 0), c) {
			hits++
		}
	}
	if hits < 25 {
		t.Fatalf("θ2 hit %d/30 times, want >= 25 (Gs-driven replay)", hits)
	}
}

// TestReplayFigure2Theta1: the symmetric 509+509 deadlock reproduces too.
func TestReplayFigure2Theta1(t *testing.T) {
	tr, cycles := analyze(t, figure2Factory)
	c := cycleBySig(t, cycles, "509+509")
	g := sdg.Build(c, tr)
	hits := 0
	for seed := int64(0); seed < 30; seed++ {
		if Hit(Attempt(figure2Factory, g, c, seed, 0), c) {
			hits++
		}
	}
	if hits < 25 {
		t.Fatalf("θ1 hit %d/30 times, want >= 25", hits)
	}
}

// TestRandomReplayBiasedAgainstTheta2: plain random scheduling (the
// DeadlockFuzzer-style baseline without dependency constraints) almost
// never produces θ2 — it deadlocks at θ1/θ3 instead. This is the paper's
// motivation for trace-driven replay.
func TestRandomReplayBiasedAgainstTheta2(t *testing.T) {
	tr, cycles := analyze(t, figure2Factory)
	c := cycleBySig(t, cycles, "509+522")
	_ = tr
	hits := 0
	for seed := int64(0); seed < 50; seed++ {
		prog, opts := figure2Factory()
		out := sim.Run(prog, sim.NewRandomStrategy(seed), opts)
		if Hit(out, c) {
			hits++
		}
	}
	if hits > 5 {
		t.Fatalf("random schedule hit θ2 %d/50 times; expected heavy bias toward θ1", hits)
	}
}

// TestInfeasibleCycleDoesNotHang: replaying θ4 (cyclic Gs — normally
// filtered by the Generator) must terminate via force-release rather
// than hang.
func TestInfeasibleCycleDoesNotHang(t *testing.T) {
	tr, cycles := analyze(t, figure2Factory)
	c := cycleBySig(t, cycles, "522+522")
	g := sdg.Build(c, tr)
	if !g.Cyclic(sdg.AllKinds) {
		t.Fatal("θ4 Gs should be cyclic")
	}
	for seed := int64(0); seed < 10; seed++ {
		out := Attempt(figure2Factory, g, c, seed, 20000)
		if out.Kind == sim.StepLimit {
			t.Fatalf("seed %d: replay of infeasible cycle hit step limit", seed)
		}
		if Hit(out, c) {
			t.Fatalf("seed %d: impossible deadlock θ4 reproduced", seed)
		}
	}
}

// divergentFactory builds a program whose worker takes a different path
// on replay (it skips the 16-analogue acquisition when a shared flag is
// set), exercising the Replayer's vertex-skipping.
func divergentFactory(skip bool) Factory {
	return func() (sim.Program, sim.Options) {
		var l1, l2, l3 *sim.Lock
		opts := sim.Options{Setup: func(w *sim.World) {
			l1, l2, l3 = w.NewLock("l1"), w.NewLock("l2"), w.NewLock("l3")
		}}
		prog := func(th *sim.Thread) {
			h := th.Go("w", func(u *sim.Thread) {
				u.Lock(l3, "31")
				u.Lock(l2, "32")
				u.Lock(l1, "33")
				u.Unlock(l1, "34")
				u.Unlock(l2, "35")
				u.Unlock(l3, "36")
			}, "15")
			if !skip {
				th.Lock(l3, "16")
				th.Unlock(l3, "17")
			}
			th.Lock(l1, "18")
			th.Lock(l2, "19")
			th.Unlock(l2, "20")
			th.Unlock(l1, "21")
			th.Join(h, "22")
		}
		return prog, opts
	}
}

// TestDivergentControlFlow: Gs built from a trace containing the l3
// acquisition at site 16 still replays when the re-execution skips 16 —
// the skipped vertex's edges are removed (paper Section 3.5, last
// paragraph).
func TestDivergentControlFlow(t *testing.T) {
	tr, cycles := analyze(t, divergentFactory(false))
	c := cycleBySig(t, cycles, "19+33")
	g := sdg.Build(c, tr)
	// Replay a *different* binary: one that skips site 16.
	hits := 0
	for seed := int64(0); seed < 20; seed++ {
		out := Attempt(divergentFactory(true), g, c, seed, 20000)
		if out.Kind == sim.StepLimit {
			t.Fatalf("seed %d: replay hung on skipped vertex", seed)
		}
		if Hit(out, c) {
			hits++
		}
	}
	if hits < 15 {
		t.Fatalf("divergent replay hit %d/20, want >= 15", hits)
	}
}

// TestReproduceStopsEarly: Reproduce stops at the first hit.
func TestReproduceStopsEarly(t *testing.T) {
	tr, cycles := analyze(t, fig4Factory)
	c := cycleBySig(t, cycles, "19+33")
	g := sdg.Build(c, tr)
	res := Reproduce(fig4Factory, g, c, Config{Attempts: 10})
	if !res.Reproduced {
		t.Fatal("not reproduced")
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (deterministic hit)", res.Attempts)
	}
}

// TestHitCriterion: a deadlock at different sites is not a hit.
func TestHitCriterion(t *testing.T) {
	tr, cycles := analyze(t, figure2Factory)
	c509 := cycleBySig(t, cycles, "509+509")
	c522 := cycleBySig(t, cycles, "522+522")
	g := sdg.Build(c509, tr)
	out := Attempt(figure2Factory, g, c509, 1, 0)
	if !Hit(out, c509) {
		t.Fatal("θ1 replay missed")
	}
	if Hit(out, c522) {
		t.Fatal("θ1 deadlock wrongly counted as a θ4 hit")
	}
	if Hit(&sim.Outcome{Kind: sim.Terminated}, c509) {
		t.Fatal("terminated run counted as hit")
	}
}

// TestAttemptDoesNotMutateCallerGraph: Attempt clones Gs.
func TestAttemptDoesNotMutateCallerGraph(t *testing.T) {
	tr, cycles := analyze(t, fig4Factory)
	c := cycleBySig(t, cycles, "19+33")
	g := sdg.Build(c, tr)
	n := g.Size()
	Attempt(fig4Factory, g, c, 1, 0)
	if g.Size() != n {
		t.Fatalf("caller graph mutated: %d → %d vertices", n, g.Size())
	}
}

// TestReplayFailureInjection: a program that panics during replay (a
// buggy workload, not a scheduling problem) must surface as a
// program-error outcome and an unreproduced result — never a hang or a
// bogus confirmation.
func TestReplayFailureInjection(t *testing.T) {
	tr, cycles := analyze(t, fig4Factory)
	c := cycleBySig(t, cycles, "19+33")
	g := sdg.Build(c, tr)

	crashing := func() (sim.Program, sim.Options) {
		prog, opts := fig4Factory()
		wrapped := func(th *sim.Thread) {
			th.Yield("pre")
			panic("injected workload bug")
		}
		_ = prog
		return wrapped, opts
	}
	out := Attempt(crashing, g, c, 1, 0)
	if out.Kind != sim.ProgramError {
		t.Fatalf("outcome = %v, want program-error", out)
	}
	res := Reproduce(crashing, g, c, Config{Attempts: 3})
	if res.Reproduced {
		t.Fatal("crashing workload reported as reproduced")
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
}

// TestReplayCycleThreadMissing: replaying against a program whose cycle
// threads never appear (renamed spawn) terminates and misses cleanly.
func TestReplayCycleThreadMissing(t *testing.T) {
	tr, cycles := analyze(t, fig4Factory)
	c := cycleBySig(t, cycles, "19+33")
	g := sdg.Build(c, tr)

	renamed := func() (sim.Program, sim.Options) {
		var l1 *sim.Lock
		opts := sim.Options{Setup: func(w *sim.World) {
			l1 = w.NewLock("l1")
			w.NewLock("l2")
			w.NewLock("l3")
		}}
		prog := func(th *sim.Thread) {
			h := th.Go("other", func(u *sim.Thread) {
				u.Lock(l1, "x1")
				u.Unlock(l1, "x2")
			}, "s")
			th.Join(h, "j")
		}
		return prog, opts
	}
	for seed := int64(0); seed < 5; seed++ {
		out := Attempt(renamed, g, c, seed, 20000)
		if out.Kind != sim.Terminated {
			t.Fatalf("seed %d: outcome = %v, want terminated", seed, out)
		}
		if Hit(out, c) {
			t.Fatal("impossible hit")
		}
	}
}
