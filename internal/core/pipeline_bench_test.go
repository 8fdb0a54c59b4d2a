package core

import (
	"fmt"
	"runtime"
	"testing"

	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// benchPipelineTrace records a terminating run of a synthetic workload
// with `pairs` independent lock inversions. Each pair contributes one
// potential deadlock cycle whose threads drag `iters` iterations of
// nested noise acquisitions and cross-thread value flow in their
// prefixes, so the Generator faces long D'σ slices, many type-C
// candidates and many loads with foreign producers — the shapes the
// analysis index exists for.
func benchPipelineTrace(b testing.TB, pairs, iters int) *trace.Trace {
	b.Helper()
	type pairLocks struct {
		a, l, r, n1, n2 *sim.Lock
		vars            []*sim.Var
	}
	pls := make([]*pairLocks, pairs)
	opts := sim.Options{MaxSteps: 10_000_000, Setup: func(w *sim.World) {
		for p := 0; p < pairs; p++ {
			pl := &pairLocks{
				l:  w.NewLock(fmt.Sprintf("A%d", p)),
				r:  w.NewLock(fmt.Sprintf("B%d", p)),
				n1: w.NewLock(fmt.Sprintf("n1_%d", p)),
				n2: w.NewLock(fmt.Sprintf("n2_%d", p)),
			}
			for i := 0; i < iters; i++ {
				pl.vars = append(pl.vars, w.NewVar(fmt.Sprintf("v%d_%d", p, i), 0))
			}
			pls[p] = pl
		}
	}}
	body := func(p int, first, second func(*pairLocks) *sim.Lock, writer bool) sim.Program {
		return func(u *sim.Thread) {
			pl := pls[p]
			for i := 0; i < iters; i++ {
				u.Lock(pl.n1, "noise1")
				u.Lock(pl.n2, "noise2")
				u.Unlock(pl.n2, "noise2u")
				u.Unlock(pl.n1, "noise1u")
				if writer {
					u.Store(pl.vars[i], i, "store")
				} else {
					u.Load(pl.vars[i], "load")
				}
			}
			u.Lock(first(pl), "inv1")
			u.Lock(second(pl), "inv2")
			u.Unlock(second(pl), "inv2u")
			u.Unlock(first(pl), "inv1u")
		}
	}
	prog := func(th *sim.Thread) {
		var hs []*sim.Thread
		for p := 0; p < pairs; p++ {
			p := p
			hs = append(hs, th.Go(fmt.Sprintf("a%d", p),
				body(p, func(pl *pairLocks) *sim.Lock { return pl.l },
					func(pl *pairLocks) *sim.Lock { return pl.r }, true), "sa"))
			hs = append(hs, th.Go(fmt.Sprintf("b%d", p),
				body(p, func(pl *pairLocks) *sim.Lock { return pl.r },
					func(pl *pairLocks) *sim.Lock { return pl.l }, false), "sb"))
		}
		for _, h := range hs {
			th.Join(h, "j")
		}
	}
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = []sim.Listener{vt, rec}
	out := sim.Run(prog, sim.FirstEnabled{}, opts)
	if out.Kind != sim.Terminated {
		b.Fatalf("outcome %v", out)
	}
	return rec.Finish(0)
}

// BenchmarkAnalyzeTrace measures the whole offline pipeline (cycle
// detection → Pruner → Generator, value-flow extension on) over
// synthetic traces, sequentially and at full parallelism. CI runs this
// suite with -benchtime=1x and converts the output into
// BENCH_pipeline.json; EXPERIMENTS.md tracks before/after numbers.
func BenchmarkAnalyzeTrace(b *testing.B) {
	sizes := []struct {
		name         string
		pairs, iters int
	}{
		{"small", 2, 40},
		{"large", 8, 400},
	}
	pars := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pars = append(pars, n)
	}
	for _, sz := range sizes {
		tr := benchPipelineTrace(b, sz.pairs, sz.iters)
		for _, par := range pars {
			name := fmt.Sprintf("%s/p%d", sz.name, par)
			b.Run(name, func(b *testing.B) {
				cfg := Config{DataDependency: true}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep := AnalyzeTrace(tr, cfg)
					if len(rep.Cycles) != sz.pairs {
						b.Fatalf("cycles = %d, want %d", len(rep.Cycles), sz.pairs)
					}
				}
			})
		}
	}
}
