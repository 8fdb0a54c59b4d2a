package detect

import (
	"sort"
	"strings"
	"testing"

	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// record runs prog under the extended recorder and returns the trace.
func record(t *testing.T, prog sim.Program, opts sim.Options, s sim.Strategy) *trace.Trace {
	t.Helper()
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	out := sim.Run(prog, s, opts)
	if out.Kind == sim.ProgramError {
		t.Fatalf("outcome = %v", out)
	}
	return rec.Finish(0)
}

// fig4Trace records the paper's Figure 4 program sequentially.
func fig4Trace(t *testing.T) *trace.Trace {
	t.Helper()
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
	return record(t, prog, opts, sim.FirstEnabled{})
}

// TestFigure4Cycles: the detector finds exactly the paper's θ1 = {η2, η5}
// and θ2 = {η8, η5}.
func TestFigure4Cycles(t *testing.T) {
	tr := fig4Trace(t)
	cycles := Cycles(tr, Config{})
	if len(cycles) != 2 {
		t.Fatalf("found %d cycles, want 2:\n%v", len(cycles), cycles)
	}
	var sigs []string
	for _, c := range cycles {
		sigs = append(sigs, c.Signature())
	}
	sort.Strings(sigs)
	// θ1: main acquiring l2 at 12, t3 acquiring l1 at 33.
	// θ2: main acquiring l2 at 19, t3 acquiring l1 at 33.
	want := []string{"12+33", "19+33"}
	if sigs[0] != want[0] || sigs[1] != want[1] {
		t.Fatalf("cycle signatures = %v, want %v", sigs, want)
	}
	for _, c := range cycles {
		if len(c.Tuples) != 2 {
			t.Errorf("cycle %v has %d tuples, want 2", c, len(c.Tuples))
		}
		ths := c.Threads()
		if ths[0] != "main" || !strings.Contains(ths[1], "t3") {
			t.Errorf("cycle threads = %v, want [main, …t3…]", ths)
		}
	}
}

// TestNoCycleOnConsistentOrder: consistent lock ordering yields no cycles.
func TestNoCycleOnConsistentOrder(t *testing.T) {
	var a, b *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		a, b = w.NewLock("A"), w.NewLock("B")
	}}
	body := func(u *sim.Thread) {
		u.Lock(a, "x1")
		u.Lock(b, "x2")
		u.Unlock(b, "x3")
		u.Unlock(a, "x4")
	}
	prog := func(th *sim.Thread) {
		h := th.Go("w", body, "m1")
		body(th)
		th.Join(h, "m2")
	}
	tr := record(t, prog, opts, sim.NewRandomStrategy(1))
	if cycles := Cycles(tr, Config{}); len(cycles) != 0 {
		t.Fatalf("found %d cycles on consistent order: %v", len(cycles), cycles)
	}
}

// TestGuardLockSuppressesCycle: a common outer lock guards the inversion.
func TestGuardLockSuppressesCycle(t *testing.T) {
	var g, a, b *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		g, a, b = w.NewLock("G"), w.NewLock("A"), w.NewLock("B")
	}}
	prog := func(th *sim.Thread) {
		h := th.Go("w", func(u *sim.Thread) {
			u.Lock(g, "w0")
			u.Lock(b, "w1")
			u.Lock(a, "w2")
			u.Unlock(a, "w3")
			u.Unlock(b, "w4")
			u.Unlock(g, "w5")
		}, "m0")
		th.Lock(g, "m1")
		th.Lock(a, "m2")
		th.Lock(b, "m3")
		th.Unlock(b, "m4")
		th.Unlock(a, "m5")
		th.Unlock(g, "m6")
		th.Join(h, "m7")
	}
	tr := record(t, prog, opts, sim.NewRandomStrategy(1))
	if cycles := Cycles(tr, Config{}); len(cycles) != 0 {
		t.Fatalf("guarded inversion reported as cycle: %v", cycles)
	}
}

// TestThreeThreadCycle: an A→B→C→A chain across three threads.
func TestThreeThreadCycle(t *testing.T) {
	var a, b, c *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		a, b, c = w.NewLock("A"), w.NewLock("B"), w.NewLock("C")
	}}
	hold := func(first, second *sim.Lock, s1, s2 string) sim.Program {
		return func(u *sim.Thread) {
			u.Lock(first, s1)
			u.Lock(second, s2)
			u.Unlock(second, s2+"u")
			u.Unlock(first, s1+"u")
		}
	}
	prog := func(th *sim.Thread) {
		h1 := th.Go("w1", hold(a, b, "t1a", "t1b"), "m1")
		h2 := th.Go("w2", hold(b, c, "t2b", "t2c"), "m2")
		h3 := th.Go("w3", hold(c, a, "t3c", "t3a"), "m3")
		th.Join(h1, "m4")
		th.Join(h2, "m5")
		th.Join(h3, "m6")
	}
	// A sequential schedule records all acquisitions without deadlocking.
	tr := record(t, prog, opts, sim.FirstEnabled{})
	cycles := Cycles(tr, Config{})
	if len(cycles) != 1 {
		t.Fatalf("found %d cycles, want 1: %v", len(cycles), cycles)
	}
	if got := len(cycles[0].Tuples); got != 3 {
		t.Fatalf("cycle length = %d, want 3", got)
	}
}

// TestMaxLengthBound: the same 3-cycle is invisible with MaxLength 2.
func TestMaxLengthBound(t *testing.T) {
	var a, b, c *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		a, b, c = w.NewLock("A"), w.NewLock("B"), w.NewLock("C")
	}}
	prog := func(th *sim.Thread) {
		mk := func(first, second *sim.Lock, tag string) *sim.Thread {
			return th.Go(tag, func(u *sim.Thread) {
				u.Lock(first, tag+"1")
				u.Lock(second, tag+"2")
				u.Unlock(second, tag+"3")
				u.Unlock(first, tag+"4")
			}, "m-"+tag)
		}
		h1, h2, h3 := mk(a, b, "w1"), mk(b, c, "w2"), mk(c, a, "w3")
		th.Join(h1, "j1")
		th.Join(h2, "j2")
		th.Join(h3, "j3")
	}
	tr := record(t, prog, opts, sim.FirstEnabled{})
	if cycles := Cycles(tr, Config{MaxLength: 2}); len(cycles) != 0 {
		t.Fatalf("MaxLength=2 found %d cycles, want 0", len(cycles))
	}
	if cycles := Cycles(tr, Config{MaxLength: 3}); len(cycles) != 1 {
		t.Fatalf("MaxLength=3 found %d cycles, want 1", len(cycles))
	}
}

// TestNoDuplicateRotations: each cycle set is reported exactly once even
// when every rotation is discoverable.
func TestNoDuplicateRotations(t *testing.T) {
	tr := fig4Trace(t)
	cycles := Cycles(tr, Config{})
	seen := make(map[string]int)
	for _, c := range cycles {
		key := c.Signature()
		seen[key]++
		if seen[key] > 1 {
			t.Fatalf("cycle %s reported %d times", key, seen[key])
		}
	}
}

// TestAvgStackDepth: SL counts held plus pending acquisitions.
func TestAvgStackDepth(t *testing.T) {
	tr := fig4Trace(t)
	cycles := Cycles(tr, Config{})
	for _, c := range cycles {
		// main holds 1 and wants 1 (depth 2); t3 holds 2 wants 1 (depth 3).
		if got := c.AvgStackDepth(); got != 2.5 {
			t.Errorf("cycle %v SL = %v, want 2.5", c, got)
		}
	}
}
