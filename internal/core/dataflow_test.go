package core

import (
	"context"
	"testing"

	"wolf/internal/explore"
	"wolf/internal/obs"
	"wolf/internal/sdg"
	"wolf/internal/workloads"
	"wolf/sim"
)

// watcherFactory is the minimal flag-ordered inversion: the watcher takes
// the inverted branch only after observing the publisher's flag, which
// the publisher raises after finishing its own ordered section.
func watcherFactory() (sim.Program, sim.Options) {
	var x, y *sim.Lock
	var flag *sim.Var
	opts := sim.Options{Setup: func(w *sim.World) {
		x, y = w.NewLock("X"), w.NewLock("Y")
		flag = w.NewVar("ready", false)
	}}
	prog := func(th *sim.Thread) {
		pub := th.Go("pub", func(u *sim.Thread) {
			u.Lock(x, "pub:1")
			u.Lock(y, "pub:2")
			u.Unlock(y, "pub:3")
			u.Unlock(x, "pub:4")
			u.Store(flag, true, "pub:5")
		}, "m1")
		wat := th.Go("wat", func(u *sim.Thread) {
			for i := 0; i < 2; i++ {
				if u.LoadBool(flag, "wat:poll") {
					u.Lock(y, "wat:1")
					u.Lock(x, "wat:2")
					u.Unlock(x, "wat:3")
					u.Unlock(y, "wat:4")
					return
				}
				u.Yield("wat:spin")
			}
		}, "m2")
		th.Join(pub, "m3")
		th.Join(wat, "m4")
	}
	return prog, opts
}

// TestDataRefutationMatchesGroundTruth: the exhaustive explorer proves
// the flag-ordered inversion can never deadlock; plain WOLF leaves it
// unknown; the value-flow extension refutes it.
func TestDataRefutationMatchesGroundTruth(t *testing.T) {
	ground, err := explore.Explore(watcherFactory, explore.Limits{MaxRuns: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	if ground.Truncated {
		t.Skip("ground truth truncated")
	}
	if ground.DeadlockFound() {
		t.Fatalf("the flag-ordered program deadlocked somewhere:\n%v", ground)
	}

	seed := findDetectionSeed(t, watcherFactory)
	base := Analyze(watcherFactory, Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5})
	if len(base.Defects) != 1 {
		t.Fatalf("defects = %d, want 1 (cycle must be detected)", len(base.Defects))
	}
	if got := base.Defects[0].Class; got != Unknown {
		t.Fatalf("base class = %v, want unknown", got)
	}

	ext := Analyze(watcherFactory, Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5, DataDependency: true})
	if got := ext.Defects[0].Class; got != FalseByData {
		t.Fatalf("extension class = %v, want false(data)", got)
	}
}

// realWithDataTrafficFactory has a REAL deadlock plus harmless flag
// traffic: the extension must not refute it.
func realWithDataTrafficFactory() (sim.Program, sim.Options) {
	var x, y *sim.Lock
	var counter *sim.Var
	opts := sim.Options{Setup: func(w *sim.World) {
		x, y = w.NewLock("X"), w.NewLock("Y")
		counter = w.NewVar("count", 0)
	}}
	prog := func(th *sim.Thread) {
		a := th.Go("a", func(u *sim.Thread) {
			u.Store(counter, 1, "a:0")
			u.Lock(x, "a:1")
			u.Lock(y, "a:2")
			u.Unlock(y, "a:3")
			u.Unlock(x, "a:4")
		}, "m1")
		b := th.Go("b", func(u *sim.Thread) {
			_ = u.LoadInt(counter, "b:0") // may or may not see a's store
			u.Lock(y, "b:1")
			u.Lock(x, "b:2")
			u.Unlock(x, "b:3")
			u.Unlock(y, "b:4")
		}, "m2")
		th.Join(a, "m3")
		th.Join(b, "m4")
	}
	return prog, opts
}

// TestDataExtensionKeepsRealDeadlock: value flow observed on the
// recorded trace (b happening to read a's store) must not refute a
// deadlock that is feasible — the V edges order the store before the
// load but that ordering is compatible with the deadlock.
func TestDataExtensionKeepsRealDeadlock(t *testing.T) {
	ground, err := explore.Explore(realWithDataTrafficFactory, explore.Limits{MaxRuns: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	if !ground.Truncated && !ground.DeadlockFound() {
		t.Fatal("expected a feasible deadlock in the ground truth")
	}
	seed := findDetectionSeed(t, realWithDataTrafficFactory)
	ext := Analyze(realWithDataTrafficFactory, Config{
		DetectSeeds: []int64{seed}, ReplayAttempts: 10, DataDependency: true,
	})
	if len(ext.Defects) != 1 {
		t.Fatalf("defects = %d, want 1", len(ext.Defects))
	}
	if got := ext.Defects[0].Class; got != Confirmed {
		t.Fatalf("class = %v, want confirmed (extension must not refute a real deadlock)", got)
	}
}

// TestMaskedCheckMatchesSecondBuild: the Generator attributes a
// refutation to the value-flow edges by asking its one Gs again with V
// masked out. On every cycle it refutes with DataDependency, across the
// registry, that answer equals the two-build attribution it replaced: a
// fresh build without V. And it builds Gs once per unpruned cycle.
func TestMaskedCheckMatchesSecondBuild(t *testing.T) {
	refuted, byData := 0, 0
	for _, w := range workloads.Registry() {
		seed, ok := workloads.FindTerminatingSeed(w.New, 300)
		if !ok {
			seed = 1
		}
		rec := obs.NewRecorder()
		rep, err := AnalyzeTraceCtx(obs.WithRecorder(context.Background(), rec), Record(w.New, seed, 0), Config{DataDependency: true})
		if err != nil {
			t.Fatal(err)
		}
		unpruned := 0
		for _, cr := range rep.Cycles {
			if cr.Class != FalseByPruner {
				unpruned++
			}
			if cr.Class != FalseByGenerator && cr.Class != FalseByData {
				continue
			}
			refuted++
			if cr.Class == FalseByData {
				byData++
			}
			base := cr.Kinds &^ sdg.V
			masked := cr.Graph().Cyclic(base)
			fresh := sdg.BuildKinds(cr.Cycle, cr.Trace, base).Cyclic(sdg.AllWithData)
			if masked != fresh || fresh != (cr.Class == FalseByGenerator) {
				t.Errorf("%s %s: %v, masked check cyclic %v, build without V cyclic %v",
					w.Name, cr.Cycle.Signature(), cr.Class, masked, fresh)
			}
		}
		if n := rec.Count("sdg.build"); n != unpruned {
			t.Errorf("%s: %d Gs builds for %d unpruned cycles", w.Name, n, unpruned)
		}
	}
	if refuted == 0 || byData == 0 || byData == refuted {
		t.Fatalf("%d refuted, %d by data: the registry must exercise both attributions", refuted, byData)
	}
	t.Logf("%d refuted cycles, %d by data", refuted, byData)
}
