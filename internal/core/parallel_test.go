package core_test

// The determinism contract of the Generator fan-out: the JSON report
// produced at any GOMAXPROCS, which sets the pool's width, must be
// byte-identical to the sequential GOMAXPROCS=1 run. Wall-clock phase
// timings can never be byte-stable across runs, so the test first
// asserts they are populated and then zeroes them before comparing;
// everything else — cycle order, verdicts, graph sizes, prune reasons,
// defect grouping — must match exactly. Run under -race (CI does) this
// also proves the worker pool is data-race free.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"wolf/internal/core"
	"wolf/internal/report"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// valueFlowFactory builds a workload with `pairs` independent lock
// inversions plus cross-thread value flow, so analysis exercises every
// parallelized code path: many cycles, type-C context edges and type-V
// data edges with foreign producers.
func valueFlowFactory(pairs, iters int) sim.Factory {
	return func() (sim.Program, sim.Options) {
		type pairLocks struct {
			l, r *sim.Lock
			vars []*sim.Var
		}
		pls := make([]*pairLocks, pairs)
		opts := sim.Options{Setup: func(w *sim.World) {
			for p := 0; p < pairs; p++ {
				pl := &pairLocks{
					l: w.NewLock(fmt.Sprintf("A%d", p)),
					r: w.NewLock(fmt.Sprintf("B%d", p)),
				}
				for i := 0; i < iters; i++ {
					pl.vars = append(pl.vars, w.NewVar(fmt.Sprintf("v%d_%d", p, i), 0))
				}
				pls[p] = pl
			}
		}}
		body := func(p int, flip, writer bool) sim.Program {
			return func(u *sim.Thread) {
				pl := pls[p]
				for i := 0; i < iters; i++ {
					if writer {
						u.Store(pl.vars[i], i, "store")
					} else {
						u.Load(pl.vars[i], "load")
					}
				}
				first, second := pl.l, pl.r
				if flip {
					first, second = pl.r, pl.l
				}
				u.Lock(first, "inv1")
				u.Lock(second, "inv2")
				u.Unlock(second, "inv2u")
				u.Unlock(first, "inv1u")
			}
		}
		prog := func(th *sim.Thread) {
			var hs []*sim.Thread
			for p := 0; p < pairs; p++ {
				hs = append(hs, th.Go(fmt.Sprintf("a%d", p), body(p, false, true), "sa"))
				hs = append(hs, th.Go(fmt.Sprintf("b%d", p), body(p, true, false), "sb"))
			}
			for _, h := range hs {
				th.Join(h, "j")
			}
		}
		return prog, opts
	}
}

// terminatingSeeds returns the first `want` seeds whose recorded run
// terminates, so detection sees complete traces.
func terminatingSeeds(t *testing.T, f sim.Factory, want int) []int64 {
	t.Helper()
	var seeds []int64
	for seed := int64(1); seed <= 300 && len(seeds) < want; seed++ {
		prog, opts := f()
		if out := sim.Run(prog, sim.NewRandomStrategy(seed), opts); out.Kind == sim.Terminated {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < want {
		t.Fatalf("found %d terminating seeds, want %d", len(seeds), want)
	}
	return seeds
}

// normalizedReport marshals the analysis report after asserting the
// timings are populated and zeroing them (the only fields that cannot
// be byte-stable across runs).
func normalizedReport(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	jr := report.FromCore(rep)
	if jr.Timings.CycleDetectNs <= 0 || jr.Timings.GenerateNs <= 0 {
		t.Fatalf("phase timings not populated: %+v", jr.Timings)
	}
	jr.Timings = report.JSONTimings{}
	buf, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf
}

func TestAnalyzeTraceParallelDeterminism(t *testing.T) {
	type tcase struct {
		name string
		tr   *trace.Trace
	}
	var cases []tcase

	vf := valueFlowFactory(4, 25)
	for _, seed := range terminatingSeeds(t, vf, 3) {
		cases = append(cases, tcase{
			name: fmt.Sprintf("valueflow/seed%d", seed),
			tr:   core.Record(vf, seed, 0),
		})
	}
	for _, name := range []string{"Figure4", "Figure2", "cache4j"} {
		wl, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		seed := terminatingSeeds(t, wl.New, 1)[0]
		cases = append(cases, tcase{
			name: fmt.Sprintf("%s/seed%d", name, seed),
			tr:   core.Record(wl.New, seed, 0),
		})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{DataDependency: true}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			want := normalizedReport(t, core.AnalyzeTrace(tc.tr, cfg))
			for _, par := range []int{2, 4, 8} {
				runtime.GOMAXPROCS(par)
				got := normalizedReport(t, core.AnalyzeTrace(tc.tr, cfg))
				if !bytes.Equal(want, got) {
					t.Fatalf("GOMAXPROCS=%d report differs from sequential:\n--- p1 ---\n%s\n--- p%d ---\n%s",
						par, want, par, got)
				}
			}
		})
	}
}
