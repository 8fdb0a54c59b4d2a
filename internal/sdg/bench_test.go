package sdg

import (
	"testing"

	"wolf/internal/detect"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// benchTrace builds a trace with long prefixes: two threads doing many
// nested sections before an inverted pair.
func benchTrace(b *testing.B) (*trace.Trace, []*detect.Cycle) {
	b.Helper()
	var res, ctx *sim.Lock
	var noise []*sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		res, ctx = w.NewLock("res"), w.NewLock("ctx")
		for i := 0; i < 4; i++ {
			noise = append(noise, w.NewLock("noise"+string(rune('0'+i))))
		}
	}}
	body := func(first, second *sim.Lock, tag string) sim.Program {
		return func(u *sim.Thread) {
			for i := 0; i < 30; i++ {
				for _, n := range noise {
					u.Lock(n, tag+"-n")
					u.Unlock(n, tag+"-nu")
				}
			}
			u.Lock(first, tag+"-1")
			u.Lock(second, tag+"-2")
			u.Unlock(second, tag+"-2u")
			u.Unlock(first, tag+"-1u")
		}
	}
	prog := func(th *sim.Thread) {
		h1 := th.Go("a", body(res, ctx, "a"), "s1")
		h2 := th.Go("b", body(ctx, res, "b"), "s2")
		th.Join(h1, "j1")
		th.Join(h2, "j2")
	}
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = []sim.Listener{vt, rec}
	out := sim.Run(prog, sim.FirstEnabled{}, opts)
	if out.Kind != sim.Terminated {
		b.Fatalf("outcome %v", out)
	}
	tr := rec.Finish(0)
	cycles := detect.Cycles(tr, detect.Config{})
	if len(cycles) == 0 {
		b.Fatal("no cycles")
	}
	return tr, cycles
}

func BenchmarkBuild(b *testing.B) {
	tr, cycles := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Build(cycles[0], tr)
		if g.Size() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkClone(b *testing.B) {
	tr, cycles := benchTrace(b)
	g := Build(cycles[0], tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := g.Clone()
		cl.RemoveThread("main/a.0")
	}
}

func BenchmarkCyclicCheck(b *testing.B) {
	tr, cycles := benchTrace(b)
	g := Build(cycles[0], tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Cyclic(AllKinds) {
			b.Fatal("unexpected cycle")
		}
	}
}
