package core

import (
	"context"

	"wolf/internal/sdg"
	"wolf/internal/trace"
	"wolf/sim"
)

// AnalyzeTrace runs the offline half of the pipeline — cycle detection,
// Pruner and Generator — on a previously recorded trace (see the trace
// package's Write/Read). Replay needs the program, so surviving
// potential deadlocks stay Unknown; use Analyze for the full pipeline.
func AnalyzeTrace(tr *trace.Trace, cfg Config) *Report {
	rep, _ := AnalyzeTraceCtx(context.Background(), tr, cfg)
	return rep
}

// AnalyzeTraceCtx is AnalyzeTrace with cooperative cancellation for
// long-running callers such as the wolfd service: the context is checked
// between phases and between cycles within a phase, so a per-job timeout
// or a client disconnect abandons the analysis promptly instead of
// pinning a worker. On cancellation the partial report built so far is
// returned alongside the context's error.
//
// Phase timings are derived from obs spans ("cycle-detect", "prune",
// "generate"); when the caller's context carries a recorder — wolfd
// attaches one per job — the same spans feed its latency histograms.
func AnalyzeTraceCtx(ctx context.Context, tr *trace.Trace, cfg Config) (*Report, error) {
	rep := run(ctx, "wolf(offline)", func(ctx context.Context, rep *Report) {
		for _, c := range search(ctx, tr, &cfg) {
			rep.Cycles = append(rep.Cycles, &CycleReport{Cycle: c, Trace: tr})
		}
		refute(ctx, rep.Cycles, &cfg)
	})
	return rep, ctx.Err()
}

// DefectGraph draws one defect's Gs from a recorded trace by detection
// alone: the cycle search, the Pruner (unless DisablePruner) and one
// build with cfg's edge kinds, of the cycle Report.GsCycle picks, which
// is the graph AnalyzeTrace's report rebuilds for it. It returns the
// defect's signature and Gs, nil when none qualifies, or ctx's error.
func DefectGraph(ctx context.Context, tr *trace.Trace, cfg Config, signature string) (string, *sdg.Graph, error) {
	rep := &Report{}
	for _, c := range search(ctx, tr, &cfg) {
		rep.Cycles = append(rep.Cycles, &CycleReport{Cycle: c, Trace: tr})
	}
	if !cfg.DisablePruner {
		pruneCycles(ctx, rep.Cycles)
	}
	rep.group()
	d, cr := rep.GsCycle(signature)
	if cr == nil || ctx.Err() != nil {
		return "", nil, ctx.Err()
	}
	cr.Kinds = cfg.edgeKinds()
	return d.Signature, cr.graph(ctx), nil
}

// Record performs one instrumented run with the given seed and returns
// the recorded trace, for offline analysis or archiving.
func Record(f sim.Factory, seed int64, maxSteps int) *trace.Trace {
	return record(context.Background(), f, seed, maxSteps, true)
}
