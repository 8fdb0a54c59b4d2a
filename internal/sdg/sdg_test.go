package sdg

import (
	"strings"
	"testing"

	"wolf/internal/detect"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// record runs prog under the extended recorder.
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

// fig4 records the paper's Figure 4 program sequentially and returns the
// trace plus the surviving cycle θ2 (main@19 / t3@33).
func fig4(t *testing.T) (*trace.Trace, *detect.Cycle) {
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
	tr := record(t, prog, opts, sim.FirstEnabled{})
	for _, c := range detect.Cycles(tr, detect.Config{}) {
		if c.Signature() == "19+33" {
			return tr, c
		}
	}
	t.Fatal("θ2 not found")
	return nil, nil
}

// Stable keys of the paper's indices in our encoding: each site occurs
// once per thread in Figure 4.
var (
	ix11 = trace.Key{Thread: "main", Site: "11", Occ: 1}
	ix12 = trace.Key{Thread: "main", Site: "12", Occ: 1}
	ix16 = trace.Key{Thread: "main", Site: "16", Occ: 1}
	ix18 = trace.Key{Thread: "main", Site: "18", Occ: 1}
	ix19 = trace.Key{Thread: "main", Site: "19", Occ: 1}
	ix31 = trace.Key{Thread: "main/t2.0/t3.0", Site: "31", Occ: 1}
	ix32 = trace.Key{Thread: "main/t2.0/t3.0", Site: "32", Occ: 1}
	ix33 = trace.Key{Thread: "main/t2.0/t3.0", Site: "33", Occ: 1}
)

// TestFigure7aEdges reproduces the paper's Figure 7(a) exactly: the Gs of
// θ2 has type-D edges (18,33) and (32,19), type-C edges (16,31), (12,32)
// and (11,33), and the six program-order edges.
func TestFigure7aEdges(t *testing.T) {
	tr, c := fig4(t)
	g := Build(c, tr)
	type e struct {
		u, v trace.Key
		k    Kind
	}
	want := []e{
		{ix18, ix33, D}, {ix32, ix19, D},
		{ix16, ix31, C}, {ix12, ix32, C}, {ix11, ix33, C},
		{ix11, ix12, P}, {ix12, ix16, P}, {ix16, ix18, P}, {ix18, ix19, P},
		{ix31, ix32, P}, {ix32, ix33, P},
	}
	for _, w := range want {
		if !g.HasEdge(w.u, w.v, w.k) {
			t.Errorf("missing type-%v edge (%v,%v)\n%v", w.k, w.u, w.v, g)
		}
	}
	if g.Size() != 8 {
		t.Errorf("|Vs| = %d, want 8 (11,12,16,18,19,31,32,33)\n%v", g.Size(), g)
	}
	if g.Edges() != len(want) {
		t.Errorf("edges = %d, want %d\n%v", g.Edges(), len(want), g)
	}
	if g.Cyclic(AllKinds) {
		t.Errorf("Figure 7(a) graph must be acyclic:\n%v", g)
	}
}

// figure2 builds the paper's Figure 2 scenario: two threads calling
// equals on two synchronized maps in opposite order; size() acquires the
// other map's mutex before the per-entry get() does.
func figure2(t *testing.T) (*trace.Trace, []*detect.Cycle) {
	t.Helper()
	var m1, m2 *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		m1, m2 = w.NewLock("SM1.mutex"), w.NewLock("SM2.mutex")
	}}
	equals := func(mine, other *sim.Lock) sim.Program {
		return func(u *sim.Thread) {
			u.Lock(mine, "2024")
			u.Lock(other, "509") // t.size()
			u.Unlock(other, "509u")
			u.Lock(other, "522") // value.equals(t.get())
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
	tr := record(t, prog, opts, sim.FirstEnabled{})
	return tr, detect.Cycles(tr, detect.Config{})
}

// TestFigure2FourCycles: the detector reports θ1..θ4 (both threads can
// block at 509 or 522).
func TestFigure2FourCycles(t *testing.T) {
	_, cycles := figure2(t)
	if len(cycles) != 4 {
		t.Fatalf("cycles = %d, want 4: %v", len(cycles), cycles)
	}
	defects := make(map[string]bool)
	for _, c := range cycles {
		defects[c.Signature()] = true
	}
	if len(defects) != 3 {
		t.Fatalf("defects = %d, want 3 (509+509, 509+522, 522+522)", len(defects))
	}
}

// TestFigure7bCyclicGs: θ4 (both threads blocking at 522) has a cyclic
// Gs and is therefore a false positive, while θ1 (both at 509) is
// acyclic.
func TestFigure7bCyclicGs(t *testing.T) {
	tr, cycles := figure2(t)
	verdicts := make(map[string]bool)
	for _, c := range cycles {
		g := Build(c, tr)
		verdicts[c.Signature()] = g.Cyclic(AllKinds)
	}
	if !verdicts["522+522"] {
		t.Error("θ4 (522+522) Gs must be cyclic (paper Figure 7(b))")
	}
	if verdicts["509+509"] {
		t.Error("θ1 (509+509) Gs must be acyclic")
	}
	// θ2/θ3 (509+522 mixed) are real deadlocks: acyclic.
	if verdicts["509+522"] {
		t.Error("θ2/θ3 (509+522) Gs must be acyclic")
	}
}

// TestBlockedAndRemoval walks the Replayer's bookkeeping through the
// paper's Section 3.5 narrative.
func TestBlockedAndRemoval(t *testing.T) {
	tr, c := fig4(t)
	g := Build(c, tr)
	// Initially t3's first acquisition (31) is blocked by (16,31).
	if !g.Blocked(ix31) {
		t.Fatalf("31 should be blocked by 16:\n%v", g)
	}
	// main executes 11 and 12: their vertices (and ancestors) go away,
	// together with edges (11,33), (12,32).
	g.Executed(ix11)
	g.Executed(ix12)
	if g.Vertex(ix11) != nil || g.Vertex(ix12) != nil {
		t.Fatal("11/12 not removed")
	}
	if g.Blocked(ix32) {
		t.Fatalf("32 still blocked after 12 executed:\n%v", g)
	}
	if !g.Blocked(ix31) {
		t.Fatal("31 should still be blocked by 16")
	}
	// main executes 16: t3 becomes free to run 31.
	g.Executed(ix16)
	if g.Blocked(ix31) {
		t.Fatalf("31 still blocked after 16:\n%v", g)
	}
	// 33 is still blocked (by 18), 19 still blocked (by 32).
	if !g.Blocked(ix33) || !g.Blocked(ix19) {
		t.Fatalf("33/19 should remain blocked:\n%v", g)
	}
	// t3 executes 31 and 32; then 19 becomes unblocked.
	g.Executed(ix31)
	g.Executed(ix32)
	if g.Blocked(ix19) {
		t.Fatalf("19 still blocked after 32:\n%v", g)
	}
	// main executes 18: 33 becomes unblocked; the deadlock may form.
	g.Executed(ix18)
	if g.Blocked(ix33) {
		t.Fatalf("33 still blocked after 18:\n%v", g)
	}
}

// TestSkippedVertexRemoval: executing a later acquisition removes skipped
// earlier vertices and their ancestors via the program-order chain,
// releasing waiters (the paper's control-flow divergence handling: if
// main skips 16, t3 must not wait for it forever).
func TestSkippedVertexRemoval(t *testing.T) {
	tr, c := fig4(t)
	g := Build(c, tr)
	// main jumps straight to 18, skipping 16: 16 reaches 18 through the
	// type-P chain and is removed as an ancestor.
	g.Executed(ix18)
	if g.Vertex(ix16) != nil {
		t.Fatal("skipped vertex 16 not removed")
	}
	if g.Blocked(ix31) {
		t.Fatalf("31 still blocked after 16 was skipped:\n%v", g)
	}
}

// TestRemoveThread: a terminated thread's vertices vanish, unblocking
// waiters, but other threads' vertices stay.
func TestRemoveThread(t *testing.T) {
	tr, c := fig4(t)
	g := Build(c, tr)
	g.RemoveThread("main")
	if g.Vertex(ix11) != nil || g.Vertex(ix19) != nil {
		t.Fatal("main vertices not removed")
	}
	if g.Vertex(ix31) == nil || g.Vertex(ix33) == nil {
		t.Fatal("t3 vertices wrongly removed")
	}
	if g.Blocked(ix31) || g.Blocked(ix33) {
		t.Fatalf("t3 vertices still blocked after main removal:\n%v", g)
	}
}

// TestRemoveWithAncestorsCrossThread: removing an executed vertex prunes
// cross-thread ancestors too.
func TestRemoveWithAncestorsCrossThread(t *testing.T) {
	tr, c := fig4(t)
	g := Build(c, tr)
	// Every vertex except the sink 19 reaches 33 (directly or through
	// the P chains and the D edge (18,33)).
	g.Executed(ix33)
	if g.Size() != 1 || g.Vertex(ix19) == nil {
		t.Fatalf("after removing 33 with ancestors, want only 19 left:\n%v", g)
	}
}

// TestCloneIsIndependent: mutating a clone leaves the original intact.
func TestCloneIsIndependent(t *testing.T) {
	tr, c := fig4(t)
	g := Build(c, tr)
	n := g.Size()
	cl := g.Clone()
	cl.Executed(ix19)
	if g.Size() != n {
		t.Fatalf("original mutated: size %d → %d", n, g.Size())
	}
	if cl.Size() == n {
		t.Fatal("clone not mutated")
	}
}

// TestBuildKindsAblation: without type-C edges the graph loses the
// context constraints but keeps D and P.
func TestBuildKindsAblation(t *testing.T) {
	tr, c := fig4(t)
	g := BuildKinds(c, tr, D|P)
	if g.HasEdge(ix16, ix31, C) {
		t.Fatal("type-C edge present in D|P build")
	}
	if !g.HasEdge(ix18, ix33, D) || !g.HasEdge(ix31, ix32, P) {
		t.Fatal("D/P edges missing in D|P build")
	}
}

// TestCrossThreadBlockers lists exactly the foreign dependencies.
func TestCrossThreadBlockers(t *testing.T) {
	tr, c := fig4(t)
	g := Build(c, tr)
	bs := g.CrossThreadBlockers(ix33)
	seen := make(map[trace.Key]bool)
	for _, b := range bs {
		seen[b] = true
	}
	if !seen[ix18] || !seen[ix11] || len(bs) != 2 {
		t.Fatalf("blockers of 33 = %v, want {18, 11}", bs)
	}
}

// TestDOTRendering: the dot export mentions every live vertex and edge
// kind, and none of the removed ones.
func TestDOTRendering(t *testing.T) {
	tr, c := fig4(t)
	g := Build(c, tr)
	dot := g.DOT("theta2")
	for _, want := range []string{"digraph Gs", "theta2", "cluster_", `label="D"`, `label="C"`, "19#1", "33#1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Remove main's vertices: they must vanish from the rendering.
	g.RemoveThread("main")
	dot = g.DOT("pruned")
	if strings.Contains(dot, "19#1") {
		t.Error("removed vertex still rendered")
	}
	if !strings.Contains(dot, "33#1") {
		t.Error("surviving vertex not rendered")
	}
}

// TestCycleOnlyThroughV: a watcher inverts the publisher's lock order
// only after loading the flag the publisher stores once it is done with
// both locks. The D/C/P graph is acyclic; the value-flow edges close
// the publisher's blocked acquisition → its store → the watcher's load
// → the watcher's first acquisition → (type-D) back to the publisher.
// Masking V out of that one graph answers what a build without V does.
func TestCycleOnlyThroughV(t *testing.T) {
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
			if u.LoadBool(flag, "wat:poll") {
				u.Lock(y, "wat:1")
				u.Lock(x, "wat:2")
				u.Unlock(x, "wat:3")
				u.Unlock(y, "wat:4")
			}
		}, "m2")
		th.Join(pub, "m3")
		th.Join(wat, "m4")
	}
	tr := record(t, prog, opts, sim.FirstEnabled{})
	cycles := detect.Cycles(tr, detect.Config{})
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want the one inversion", len(cycles))
	}
	g := BuildKinds(cycles[0], tr, AllWithData)
	if !g.Cyclic(AllWithData) {
		t.Fatalf("Gs with V edges must be cyclic:\n%v", g)
	}
	if g.Cyclic(AllKinds) {
		t.Fatalf("Gs masked to D|C|P must be acyclic:\n%v", g)
	}
	if g.Cyclic(V) {
		t.Fatalf("the V edges alone form no cycle:\n%v", g)
	}
	if base := BuildKinds(cycles[0], tr, AllKinds); base.Cyclic(AllWithData) {
		t.Fatalf("a build without V must be acyclic:\n%v", base)
	}
}
