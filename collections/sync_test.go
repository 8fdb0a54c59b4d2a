package collections

import (
	"testing"

	"wolf/internal/detect"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// recordRun executes prog sequentially under the extended recorder.
func recordRun(t *testing.T, prog sim.Program, opts sim.Options) *trace.Trace {
	t.Helper()
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	out := sim.Run(prog, sim.FirstEnabled{}, opts)
	if out.Kind != sim.Terminated {
		t.Fatalf("outcome = %v", out)
	}
	return rec.Finish(0)
}

// TestSyncMapSingleThreadSafe: wrapper operations acquire and release
// correctly in one thread (no residual locks, reentrancy-free).
func TestSyncMapSingleThreadSafe(t *testing.T) {
	var sm *SyncMap[int, string]
	opts := sim.Options{}
	prog := func(th *sim.Thread) {
		sm = NewSyncMap[int, string](th.World(), "A", NewHashMap[int, string](IntHasher))
		sm.Put(th, 1, "a")
		sm.Put(th, 2, "b")
		if v, ok := sm.Get(th, 1); !ok || v != "a" {
			t.Error("Get through wrapper wrong")
		}
		if sm.Size(th) != 2 {
			t.Error("Size through wrapper wrong")
		}
		if !sm.ContainsKey(th, 2) {
			t.Error("ContainsKey wrong")
		}
		if ks := sm.Keys(th); len(ks) != 2 {
			t.Errorf("Keys = %v", ks)
		}
		sm.Remove(th, 1)
		sm.Clear(th)
		if sm.Size(th) != 0 {
			t.Error("Clear wrong")
		}
	}
	out := sim.Run(prog, sim.FirstEnabled{}, opts)
	if out.Kind != sim.Terminated {
		t.Fatalf("outcome = %v", out)
	}
}

// TestSyncMapEqualsSemantics: Equals compares map contents.
func TestSyncMapEqualsSemantics(t *testing.T) {
	prog := func(th *sim.Thread) {
		w := th.World()
		a := NewSyncMap[int, int](w, "A", NewHashMap[int, int](IntHasher))
		b := NewSyncMap[int, int](w, "B", NewTreeMap[int, int](IntLess))
		for i := 0; i < 5; i++ {
			a.Put(th, i, i*i)
			b.Put(th, i, i*i)
		}
		if !a.Equals(th, b) {
			t.Error("equal maps reported unequal")
		}
		b.Put(th, 2, -1)
		if a.Equals(th, b) {
			t.Error("unequal values reported equal")
		}
		b.Put(th, 2, 4)
		b.Remove(th, 4)
		if a.Equals(th, b) {
			t.Error("different sizes reported equal")
		}
	}
	out := sim.Run(prog, sim.FirstEnabled{}, sim.Options{})
	if out.Kind != sim.Terminated {
		t.Fatalf("outcome = %v", out)
	}
}

// TestSyncListCompoundOps: AddAll/RemoveAll/Equals through the wrappers.
func TestSyncListCompoundOps(t *testing.T) {
	prog := func(th *sim.Thread) {
		w := th.World()
		a := NewSyncList[int](w, "A", NewArrayList[int](4))
		b := NewSyncList[int](w, "B", NewLinkedList[int]())
		for i := 0; i < 4; i++ {
			a.Add(th, i)
			b.Add(th, i)
		}
		if !a.Equals(th, b) {
			t.Error("equal lists unequal")
		}
		a.AddAll(th, b) // a = 0..3 0..3
		if a.Size(th) != 8 {
			t.Errorf("AddAll size = %d", a.Size(th))
		}
		if n := a.RemoveAll(th, b); n != 8 {
			t.Errorf("RemoveAll removed %d, want 8", n)
		}
		if a.Size(th) != 0 {
			t.Errorf("RemoveAll left %d", a.Size(th))
		}
		if got := b.ToArray(th); len(got) != 4 || got[0] != 0 {
			t.Errorf("ToArray = %v", got)
		}
	}
	out := sim.Run(prog, sim.FirstEnabled{}, sim.Options{})
	if out.Kind != sim.Terminated {
		t.Fatalf("outcome = %v", out)
	}
}

// TestFigure2CyclesFromRealWrappers: two threads equals-ing two real
// synchronized maps in opposite orders generate exactly the paper's four
// cycles and three defects — now arising from the actual container code
// rather than a hand-written lock script.
func TestFigure2CyclesFromRealWrappers(t *testing.T) {
	var sm1, sm2 *SyncMap[int, string]
	opts := sim.Options{Setup: func(w *sim.World) {
		m1 := NewHashMap[int, string](IntHasher)
		m2 := NewHashMap[int, string](IntHasher)
		m1.Put(1, "x")
		m2.Put(1, "x")
		sm1 = NewSyncMap[int, string](w, "SM1", m1)
		sm2 = NewSyncMap[int, string](w, "SM2", m2)
	}}
	prog := func(th *sim.Thread) {
		h1 := th.Go("t1", func(u *sim.Thread) { sm1.Equals(u, sm2) }, "s1")
		h2 := th.Go("t2", func(u *sim.Thread) { sm2.Equals(u, sm1) }, "s2")
		th.Join(h1, "j1")
		th.Join(h2, "j2")
	}
	tr := recordRun(t, prog, opts)
	cycles := detect.Cycles(tr, detect.Config{})
	if len(cycles) != 4 {
		t.Fatalf("cycles = %d, want 4 (Figure 2):\n%v", len(cycles), cycles)
	}
	defects := make(map[string]bool)
	for _, c := range cycles {
		defects[c.Signature()] = true
	}
	if len(defects) != 3 {
		t.Fatalf("defects = %d, want 3: %v", len(defects), defects)
	}
}

// TestMutexAbstractions: same-site instances share a lock abstraction by
// the naming convention (needed by the DeadlockFuzzer baseline).
func TestMutexAbstractions(t *testing.T) {
	prog := func(th *sim.Thread) {
		w := th.World()
		a := NewSyncMap[int, int](w, "A", NewHashMap[int, int](IntHasher))
		b := NewSyncMap[int, int](w, "B", NewHashMap[int, int](IntHasher))
		if a.Mutex().Name() == b.Mutex().Name() {
			t.Error("instances share a concrete lock name")
		}
	}
	out := sim.Run(prog, sim.FirstEnabled{}, sim.Options{})
	if out.Kind != sim.Terminated {
		t.Fatalf("outcome = %v", out)
	}
}
