// Package wolf is a Go reproduction of WOLF, the trace-driven dynamic
// deadlock detection and reproduction system of Samak and Ramanathan
// (PPoPP 2014).
//
// WOLF analyzes an execution of a multithreaded program and reports
// potential deadlocks, then classifies each one automatically:
//
//   - the Extended Dynamic Cycle Detector finds cycles in the lock
//     dependency relation Dσ, recording per-thread timestamps and
//     (S, J) vector clocks;
//   - the Pruner discards cycles whose threads provably never overlap;
//   - the Generator builds a synchronization dependency graph Gs per
//     cycle and discards cycles whose Gs is itself cyclic;
//   - the Replayer re-executes the program steering the schedule by Gs;
//     a re-execution that deadlocks at the recorded source locations
//     confirms the defect.
//
// Programs under analysis are written against the deterministic
// cooperative scheduler in package wolf/sim; the analysis re-executes
// them through a sim.Factory. A DeadlockFuzzer-style baseline
// (randomized, abstraction-based reproduction) is included for
// comparison, along with the paper's benchmark workloads and the
// harness that regenerates its tables and figures (cmd/paper).
//
// Quickstart:
//
//	factory := func() (sim.Program, sim.Options) {
//		var a, b *sim.Lock
//		opts := sim.Options{Setup: func(w *sim.World) {
//			a, b = w.NewLock("A"), w.NewLock("B")
//		}}
//		prog := func(t *sim.Thread) {
//			h := t.Go("worker", func(u *sim.Thread) {
//				u.Lock(b, "worker.go:7")
//				u.Lock(a, "worker.go:8")
//				u.Unlock(a, "worker.go:9")
//				u.Unlock(b, "worker.go:10")
//			}, "main.go:3")
//			t.Lock(a, "main.go:4")
//			t.Lock(b, "main.go:5")
//			t.Unlock(b, "main.go:6")
//			t.Unlock(a, "main.go:7")
//			t.Join(h, "main.go:8")
//		}
//		return prog, opts
//	}
//	report := wolf.Analyze(factory, wolf.Config{})
//	fmt.Print(report)
package wolf

import (
	"wolf/internal/core"
	"wolf/internal/fuzzer"
	"wolf/internal/replay"
	"wolf/sim"
)

// Re-exported pipeline types; see the internal/core documentation for
// field details.
type (
	// Config controls an analysis (detection seeds, replay budget,
	// ablation switches).
	Config = core.Config
	// Report is the outcome of analyzing one program.
	Report = core.Report
	// CycleReport is the verdict for one detected lock-graph cycle.
	CycleReport = core.CycleReport
	// DefectReport aggregates cycles sharing a source-location
	// signature.
	DefectReport = core.DefectReport
	// Classification is a cycle or defect verdict.
	Classification = core.Classification
	// Timings are the pipeline phase durations.
	Timings = core.Timings
)

// Classification values.
const (
	// Unknown: neither refuted nor reproduced.
	Unknown = core.Unknown
	// FalseByPruner: refuted by vector-clock pruning.
	FalseByPruner = core.FalseByPruner
	// FalseByGenerator: refuted by a cyclic synchronization dependency
	// graph.
	FalseByGenerator = core.FalseByGenerator
	// Confirmed: automatically reproduced.
	Confirmed = core.Confirmed
)

// Analyze runs the full WOLF pipeline on the program built by factory.
func Analyze(factory sim.Factory, cfg Config) *Report {
	return core.Analyze(factory, cfg)
}

// AnalyzeDeadlockFuzzer runs the DeadlockFuzzer baseline: identical
// detection, no pruning, randomized abstraction-based reproduction.
func AnalyzeDeadlockFuzzer(factory sim.Factory, cfg Config) *Report {
	return core.AnalyzeDF(factory, cfg)
}

// HitRate replays one analyzed cycle `runs` times and returns the
// fraction of runs that deadlocked at the recorded source locations —
// the paper's Figure 8 statistic. It steers by CycleReport.Graph, so the
// cycle report must come from Analyze; pruned cycles return 0.
func HitRate(factory sim.Factory, cr *CycleReport, runs int) float64 {
	if g := cr.Graph(); g != nil {
		return replay.HitRate(factory, g, cr.Cycle, runs, replay.Config{})
	}
	return 0
}

// BaselineHitRate is HitRate for the DeadlockFuzzer baseline, which
// needs only the cycle.
func BaselineHitRate(factory sim.Factory, cr *CycleReport, runs int) float64 {
	return fuzzer.HitRate(factory, cr.Cycle, runs, fuzzer.Config{})
}
