package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wolf/internal/obs"
	"wolf/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden validates got as trace-event JSON and compares it against
// the named golden file (rewritten under -update).
func checkGolden(t *testing.T, name string, tl *obs.Timeline) {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := obs.ValidateTimeline(buf.Bytes()); err != nil {
		t.Fatalf("exported timeline invalid: %v", err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("timeline differs from %s (run with -update to rebless):\ngot:\n%s", path, buf.String())
	}
}

// TestBuildTimelineGolden pins the full -timeline export for the
// paper's Figure 4: the detection run (process 1) and the steered
// replay of the confirmed cycle with its pause markers (process 2).
// Timestamps are sim steps, so the export is bit-identical across
// machines.
func TestBuildTimelineGolden(t *testing.T) {
	cfg := Config{DetectSeeds: []int64{1}}
	rep := Analyze(fig4Factory, cfg)
	if _, _, conf, _ := rep.CountDefects(); conf != 1 {
		t.Fatalf("confirmed defects = %d, want 1\n%v", conf, rep)
	}
	checkGolden(t, "timeline_fig4.json", BuildTimeline(fig4Factory, cfg, rep))
}

// monitorFactory exercises the listener paths a lock-only workload
// misses: out-of-LIFO-order releases (the slice reopen fixup),
// wait/notify slices, and data accesses.
func monitorFactory() (sim.Program, sim.Options) {
	var a, b *sim.Lock
	var v *sim.Var
	opts := sim.Options{Setup: func(w *sim.World) {
		a, b = w.NewLock("a"), w.NewLock("b")
		v = w.NewVar("v", 0)
	}}
	prog := func(th *sim.Thread) {
		child := th.Go("child", func(u *sim.Thread) {
			u.Lock(a, "c1")
			u.Store(v, 1, "c2")
			u.Notify(a, "c3")
			u.Unlock(a, "c4")
		}, "m1")
		th.Lock(a, "m2")
		th.Lock(b, "m3")
		th.Unlock(a, "m4") // out of order: a released while b stays held
		th.Unlock(b, "m5")
		th.Lock(a, "m6")
		for th.LoadInt(v, "m7") == 0 {
			th.Wait(a, "m8")
		}
		th.Unlock(a, "m9")
		th.Join(child, "m10")
	}
	return prog, opts
}

// TestRunTimelineMonitorGolden pins the wait/notify and out-of-order
// release rendering. The seed is searched for deterministically: the
// first one whose run terminates and actually parks main in the wait
// set (schedules where the child stores v first never wait).
func TestRunTimelineMonitorGolden(t *testing.T) {
	for seed := int64(1); seed < 500; seed++ {
		tl := obs.NewTimeline()
		tl.Process(1, "monitor")
		out := RunTimeline(monitorFactory, seed, 0, tl, 1)
		waited := false
		for _, ev := range tl.Events() {
			if ev.Ph == "B" && ev.Name == "wait a" {
				waited = true
			}
		}
		if out.Kind != sim.Terminated || !waited {
			continue
		}
		checkGolden(t, "timeline_monitor.json", tl)
		return
	}
	t.Fatal("no terminating seed that exercises Wait")
}

// TestRunTimelineDeadlock checks the deadlock rendering: a global
// deadlock marker, per-thread blocked instants, and lock slices closed
// at the final step even though the threads never released them.
func TestRunTimelineDeadlock(t *testing.T) {
	// Find a seed whose run deadlocks.
	var seed int64
	for s := int64(1); s < 500; s++ {
		prog, opts := fig4Factory()
		if out := sim.Run(prog, sim.NewRandomStrategy(s), opts); out.Deadlocked() {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Skip("no deadlocking seed for fig4 in range")
	}
	tl := obs.NewTimeline()
	tl.Process(1, "deadlock run")
	out := RunTimeline(fig4Factory, seed, 0, tl, 1)
	if !out.Deadlocked() {
		t.Fatalf("outcome = %v, want Deadlocked", out.Kind)
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTimeline(buf.Bytes()); err != nil {
		t.Fatalf("deadlock timeline invalid: %v", err)
	}
	gotGlobal, gotBlocked := false, 0
	for _, ev := range tl.Events() {
		if ev.Ph == "i" && ev.Name == "deadlock" && ev.S == "g" {
			gotGlobal = true
		}
		if ev.Ph == "i" && ev.Name == "blocked" {
			gotBlocked++
		}
	}
	if !gotGlobal {
		t.Error("no global deadlock instant")
	}
	if gotBlocked != len(out.Blocked) {
		t.Errorf("blocked instants = %d, want %d", gotBlocked, len(out.Blocked))
	}
}

// TestTimelineFromTrace checks the trace-only rendering wolfd serves:
// one instant per tuple, one track per thread, valid output.
func TestTimelineFromTrace(t *testing.T) {
	seed := findDetectionSeed(t, fig4Factory)
	tr := Record(fig4Factory, seed, 0)
	tl := obs.NewTimeline()
	TimelineFromTrace(tr, tl, 1)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTimeline(buf.Bytes()); err != nil {
		t.Fatalf("trace timeline invalid: %v", err)
	}
	instants := 0
	for _, ev := range tl.Events() {
		if ev.Ph == "i" {
			instants++
		}
	}
	if instants != len(tr.Tuples) {
		t.Errorf("instants = %d, want one per tuple (%d)", instants, len(tr.Tuples))
	}
}

// TestReplayTimelinePauses checks that a steered replay that hits the
// deadlock exports pause slices from the replayer on the same tracks as
// the executed operations.
func TestReplayTimelinePauses(t *testing.T) {
	cfg := Config{DetectSeeds: []int64{1}}
	rep := Analyze(fig4Factory, cfg)
	for _, cr := range rep.Cycles {
		if cr.Class != Confirmed {
			continue
		}
		seed := cfg.ReplaySeed + int64(cr.ReplayAttempts-1)
		tl := obs.NewTimeline()
		tl.Process(1, "replay")
		out := ReplayTimeline(fig4Factory, cr.Graph(), cr.Cycle, seed, cfg.MaxSteps, tl, 1)
		if !out.Deadlocked() {
			t.Fatalf("replay outcome = %v, want Deadlocked", out.Kind)
		}
		var buf bytes.Buffer
		if err := tl.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateTimeline(buf.Bytes()); err != nil {
			t.Fatalf("replay timeline invalid: %v", err)
		}
		paused := 0
		for _, ev := range tl.Events() {
			if ev.Ph == "B" && ev.Name == "paused" {
				paused++
			}
		}
		if paused == 0 {
			t.Error("no pause slices in steered replay export")
		}
		return
	}
	t.Fatal("no confirmed cycle to replay")
}
