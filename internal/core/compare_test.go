package core

import (
	"context"
	"maps"
	"testing"

	"wolf/internal/workloads"
)

// TestCompareMatchesSeparate: Compare's one front half finds the cycles
// DeadlockFuzzer's clock-free detection finds, in the same order, and
// both of its reports reach the verdicts of separate AnalyzeCtx and
// AnalyzeDFCtx runs, on every registry workload at its terminating
// seed (seed 1 for a workload that never terminates). Jigsaw's three
// analyses take several seconds and are skipped under -short.
func TestCompareMatchesSeparate(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads.Registry() {
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "Jigsaw" && testing.Short() {
				t.Skip("Jigsaw takes several seconds")
			}
			seed, ok := workloads.FindTerminatingSeed(w.New, 300)
			if !ok {
				seed = 1 // GlobalLockCrash's crashed holder always wedges
			}
			cfg := Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5}
			wolf, df := Compare(ctx, w.New, cfg)
			plain := detectAll(ctx, w.New, &cfg, false)
			for _, rep := range []*Report{wolf, df} {
				if len(rep.Cycles) != len(plain) {
					t.Fatalf("%s: %d cycles, clock-free detection %d", rep.Tool, len(rep.Cycles), len(plain))
				}
				for i, cr := range rep.Cycles {
					if got, want := cycleKey(cr.Cycle), cycleKey(plain[i].Cycle); got != want {
						t.Errorf("%s cycle %d key = %s, want %s", rep.Tool, i, got, want)
					}
					if got, want := cr.Cycle.Signature(), plain[i].Cycle.Signature(); got != want {
						t.Errorf("%s cycle %d signature = %s, want %s", rep.Tool, i, got, want)
					}
				}
			}
			sameVerdicts(t, wolf, AnalyzeCtx(ctx, w.New, cfg))
			sameVerdicts(t, df, AnalyzeDFCtx(ctx, w.New, cfg))
		})
	}
}

// sameVerdicts checks got's per-cycle outcome against want's.
func sameVerdicts(t *testing.T, got, want *Report) {
	t.Helper()
	if len(got.Cycles) != len(want.Cycles) {
		t.Fatalf("%s: %d cycles, separate run %d", got.Tool, len(got.Cycles), len(want.Cycles))
	}
	for i, g := range got.Cycles {
		w := want.Cycles[i]
		if g.Class != w.Class || g.GsSize != w.GsSize || g.ReplayAttempts != w.ReplayAttempts ||
			g.ReplayMethod != w.ReplayMethod || !maps.Equal(g.Divergence, w.Divergence) {
			t.Errorf("%s cycle %d (%s): class %v Gs %d attempts %d method %q divergence %v; separate run %v %d %d %q %v",
				got.Tool, i, g.Cycle.Signature(), g.Class, g.GsSize, g.ReplayAttempts, g.ReplayMethod, g.Divergence,
				w.Class, w.GsSize, w.ReplayAttempts, w.ReplayMethod, w.Divergence)
		}
	}
}
