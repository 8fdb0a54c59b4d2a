package core

import (
	"context"
	"testing"

	"wolf/internal/obs"
	"wolf/sim"
)

// fig4Factory is the paper's running example (Figure 4).
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

// figure2Factory is the paper's Figure 2 synchronized-maps scenario.
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

// classOf returns the classification of the defect with the signature.
func classOf(t *testing.T, rep *Report, sig string) Classification {
	t.Helper()
	for _, d := range rep.Defects {
		if d.Signature == sig {
			return d.Class
		}
	}
	t.Fatalf("defect %s not found in %v", sig, rep)
	return Unknown
}

// findDetectionSeed returns a seed whose recorded run terminates (so the
// full trace is observed) for the given factory.
func findDetectionSeed(t *testing.T, f sim.Factory) int64 {
	t.Helper()
	for seed := int64(1); seed < 200; seed++ {
		prog, opts := f()
		if out := sim.Run(prog, sim.NewRandomStrategy(seed), opts); out.Kind == sim.Terminated {
			return seed
		}
	}
	t.Fatal("no terminating detection seed found")
	return 0
}

// TestFigure4Pipeline: θ1 pruned, θ2 confirmed — the paper's running
// example end to end.
func TestFigure4Pipeline(t *testing.T) {
	seed := findDetectionSeed(t, fig4Factory)
	rep := Analyze(fig4Factory, Config{DetectSeeds: []int64{seed}})
	if len(rep.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2\n%v", len(rep.Cycles), rep)
	}
	if got := classOf(t, rep, "12+33"); got != FalseByPruner {
		t.Errorf("θ1 class = %v, want false(pruner)", got)
	}
	if got := classOf(t, rep, "19+33"); got != Confirmed {
		t.Errorf("θ2 class = %v, want confirmed", got)
	}
	pr, gen, conf, unk := rep.CountDefects()
	if pr != 1 || gen != 0 || conf != 1 || unk != 0 {
		t.Errorf("defect counts = %d/%d/%d/%d, want 1/0/1/0", pr, gen, conf, unk)
	}
}

// TestFigure2Pipeline: θ4 refuted by the Generator, the rest confirmed —
// three defects total.
func TestFigure2Pipeline(t *testing.T) {
	seed := findDetectionSeed(t, figure2Factory)
	rep := Analyze(figure2Factory, Config{DetectSeeds: []int64{seed}})
	if len(rep.Defects) != 3 {
		t.Fatalf("defects = %d, want 3\n%v", len(rep.Defects), rep)
	}
	if got := classOf(t, rep, "522+522"); got != FalseByGenerator {
		t.Errorf("θ4 class = %v, want false(generator)", got)
	}
	if got := classOf(t, rep, "509+509"); got != Confirmed {
		t.Errorf("θ1 class = %v, want confirmed", got)
	}
	if got := classOf(t, rep, "509+522"); got != Confirmed {
		t.Errorf("θ2/θ3 class = %v, want confirmed", got)
	}
}

// TestDFBaselinePipeline: DeadlockFuzzer confirms some defects but can
// never classify false positives; θ4 stays unknown.
func TestDFBaselinePipeline(t *testing.T) {
	seed := findDetectionSeed(t, figure2Factory)
	rep := AnalyzeDF(figure2Factory, Config{DetectSeeds: []int64{seed}, ReplayAttempts: 10})
	if len(rep.Defects) != 3 {
		t.Fatalf("defects = %d, want 3\n%v", len(rep.Defects), rep)
	}
	pr, gen, _, _ := rep.CountDefects()
	if pr != 0 || gen != 0 {
		t.Errorf("DF reported false positives: %d/%d", pr, gen)
	}
	if got := classOf(t, rep, "522+522"); got != Unknown {
		t.Errorf("θ4 class under DF = %v, want unknown", got)
	}
	if got := classOf(t, rep, "509+509"); got != Confirmed {
		t.Errorf("θ1 class under DF = %v, want confirmed", got)
	}
}

// TestPrunerAblation: with the Pruner disabled, θ1 of Figure 4 is not
// refuted; its Gs is acyclic but replay cannot reproduce an infeasible
// deadlock, so it degrades to Unknown — demonstrating the Pruner's value.
func TestPrunerAblation(t *testing.T) {
	seed := findDetectionSeed(t, fig4Factory)
	rep := Analyze(fig4Factory, Config{DetectSeeds: []int64{seed}, DisablePruner: true})
	if got := classOf(t, rep, "12+33"); got != Unknown {
		t.Errorf("θ1 class without pruner = %v, want unknown", got)
	}
	if got := classOf(t, rep, "19+33"); got != Confirmed {
		t.Errorf("θ2 class without pruner = %v, want confirmed", got)
	}
}

// TestGeneratorAblation: with the Generator's cycle check disabled, θ4
// goes to the Replayer, which cannot reproduce it → Unknown instead of
// a clean false-positive verdict.
func TestGeneratorAblation(t *testing.T) {
	seed := findDetectionSeed(t, figure2Factory)
	rep := Analyze(figure2Factory, Config{DetectSeeds: []int64{seed}, DisableGenerator: true})
	if got := classOf(t, rep, "522+522"); got != Unknown {
		t.Errorf("θ4 class without generator = %v, want unknown", got)
	}
}

// TestTimingsPopulated: every phase records a duration and the slowdown
// statistic is positive, for Analyze and for both of Compare's reports.
// Compare runs one front half: one baseline span and one cycle search
// per seed, with a clocked and a clock-free recording per seed.
func TestTimingsPopulated(t *testing.T) {
	cfg := Config{DetectSeeds: []int64{1, 2}}
	rec := obs.NewRecorder()
	wolf, df := Compare(obs.WithRecorder(context.Background(), rec), figure2Factory, cfg)
	for _, rep := range []*Report{Analyze(figure2Factory, Config{}), wolf, df} {
		tm := rep.Timings
		if tm.Uninstrumented <= 0 || tm.Detect() <= 0 {
			t.Errorf("%s timings not populated: %+v", rep.Tool, tm)
		}
		if tm.DetectionSlowdown() <= 0 {
			t.Errorf("%s slowdown = %v, want > 0", rep.Tool, tm.DetectionSlowdown())
		}
	}
	seeds := len(cfg.DetectSeeds)
	for name, want := range map[string]int{"baseline": 1, "record": 2 * seeds, "cycle-detect": seeds} {
		if got := rec.Count(name); got != want {
			t.Errorf("Compare emitted %d %q spans, want %d", got, name, want)
		}
	}
}

// TestStatsPopulated: SL and Vs statistics are in the expected ranges
// for Figure 4 (SL = 2.5; Vs = 8 for θ2).
func TestStatsPopulated(t *testing.T) {
	seed := findDetectionSeed(t, fig4Factory)
	rep := Analyze(fig4Factory, Config{DetectSeeds: []int64{seed}})
	if got := rep.AvgStackLen(); got != 2.5 {
		t.Errorf("SL = %v, want 2.5", got)
	}
	if got := rep.AvgGsSize(); got != 8 {
		t.Errorf("Vs = %v, want 8 (θ2's graph)", got)
	}
}

// TestMultiSeedDeduplication: detecting on several seeds must not
// duplicate cycles.
func TestMultiSeedDeduplication(t *testing.T) {
	seed := findDetectionSeed(t, figure2Factory)
	rep1 := Analyze(figure2Factory, Config{DetectSeeds: []int64{seed}})
	rep3 := Analyze(figure2Factory, Config{DetectSeeds: []int64{seed, seed + 1000, seed + 2000}})
	if len(rep3.Cycles) < len(rep1.Cycles) {
		t.Fatalf("multi-seed found fewer cycles (%d) than single seed (%d)",
			len(rep3.Cycles), len(rep1.Cycles))
	}
	// The same four source-location cycles must not appear twice.
	seen := map[string]int{}
	for _, cr := range rep3.Cycles {
		seen[cycleKey(cr.Cycle)]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("cycle %s appears %d times", k, n)
		}
	}
}

// TestDeadlockedDetectionRun: when the recorded run itself deadlocks the
// pipeline still produces a report (the trace is simply shorter).
func TestDeadlockedDetectionRun(t *testing.T) {
	var deadSeed int64 = -1
	for seed := int64(0); seed < 300; seed++ {
		prog, opts := figure2Factory()
		if out := sim.Run(prog, sim.NewRandomStrategy(seed), opts); out.Kind == sim.Deadlocked {
			deadSeed = seed
			break
		}
	}
	if deadSeed < 0 {
		t.Skip("no deadlocking seed found")
	}
	rep := Analyze(figure2Factory, Config{DetectSeeds: []int64{deadSeed}})
	if len(rep.Cycles) == 0 {
		t.Log("deadlocked trace contained no complete cycle — acceptable")
	}
}

// TestAnalyzeCtxCancelledBeforeGenerator: a cycle the Generator never
// reached has no Gs, so the Replayer skips it and it stays unknown;
// replaying it used to dereference a nil graph.
func TestAnalyzeCtxCancelledBeforeGenerator(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := AnalyzeCtx(ctx, fig4Factory, Config{ReplayAttempts: 2})
	if len(rep.Cycles) == 0 {
		t.Fatal("no cycles detected")
	}
	for _, cr := range rep.Cycles {
		if cr.Class != Unknown || cr.ReplayAttempts != 0 || cr.Graph() != nil {
			t.Errorf("%s: class %v, %d replay attempts, graph %v; want unknown, unreplayed, no graph",
				cr.Cycle.Signature(), cr.Class, cr.ReplayAttempts, cr.Graph() != nil)
		}
	}
}
