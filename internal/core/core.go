// Package core wires WOLF's components into the end-to-end pipeline of
// the paper's Figure 3: instrumented execution → extended dynamic cycle
// detection → Pruner → Generator → Replayer, plus the DeadlockFuzzer
// baseline pipeline used for comparison.
//
// Every entry point is built from one set of stages under one wrapper,
// run: the front half (baseline and detectAll), refute (Pruner and
// Generator), reproduce (WOLF's Replayer) and fuzz (DeadlockFuzzer).
// Compare runs the front half once for both tools, as the paper's
// evaluation does ("same detection, but reproduction by randomized
// scheduling").
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wolf/internal/detect"
	"wolf/internal/fuzzer"
	"wolf/internal/obs"
	"wolf/internal/pruner"
	"wolf/internal/replay"
	"wolf/internal/sdg"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// Classification is the pipeline's verdict on a cycle or defect.
type Classification int

const (
	// Unknown: not refuted, not reproduced — left for manual analysis.
	Unknown Classification = iota
	// FalseByPruner: refuted by the vector-clock Pruner (Algorithm 2).
	FalseByPruner
	// FalseByGenerator: refuted by a cyclic synchronization dependency
	// graph (Algorithm 3).
	FalseByGenerator
	// Confirmed: automatically reproduced by the Replayer (or the
	// DeadlockFuzzer baseline) — a true positive.
	Confirmed
	// FalseByData: refuted by the value-flow extension — Gs becomes
	// cyclic only once type-V (data dependency) edges are added. Only
	// produced when Config.DataDependency is set; the paper lists this
	// analysis as future work (Section 4.4).
	FalseByData
)

// String names the classification.
func (c Classification) String() string {
	switch c {
	case FalseByPruner:
		return "false(pruner)"
	case FalseByGenerator:
		return "false(generator)"
	case Confirmed:
		return "confirmed"
	case FalseByData:
		return "false(data)"
	default:
		return "unknown"
	}
}

// IsFalse reports whether the classification is either false-positive
// verdict.
func (c Classification) IsFalse() bool {
	return c == FalseByPruner || c == FalseByGenerator || c == FalseByData
}

// Config controls an analysis.
type Config struct {
	// DetectSeeds are the schedule seeds of the recorded detection runs;
	// {1} when empty. Each seed contributes one trace.
	DetectSeeds []int64
	// MaxCycleLen bounds detected cycle length (detect.DefaultMaxLength
	// when zero).
	MaxCycleLen int
	// ReplayAttempts is the per-cycle reproduction budget
	// (replay.DefaultAttempts when zero).
	ReplayAttempts int
	// ReplaySeed seeds reproduction attempts.
	ReplaySeed int64
	// MaxSteps bounds each run (sim.DefaultMaxSteps when zero).
	MaxSteps int
	// DisablePruner skips Algorithm 2 (ablation).
	DisablePruner bool
	// DisableGenerator skips Algorithm 3's cycle check (ablation); Gs is
	// still built to drive the Replayer.
	DisableGenerator bool
	// EdgeKinds restricts Gs edges used for replay (sdg.AllKinds when
	// zero; ablation).
	EdgeKinds sdg.Kind
	// DataDependency enables the value-flow extension: shared-variable
	// accesses recorded through sim.Var add type-V edges to Gs, letting
	// the Generator refute deadlocks that the recorded control flow
	// makes impossible (the paper's Section 4.4 future work).
	DataDependency bool
	// Faults injects deterministic scheduling perturbations into every
	// replay attempt (the robustness harness; the zero value injects
	// nothing).
	Faults sim.FaultConfig
	// FallbackAttempts is the PCT-randomized confirmation budget used
	// when every steered replay diverges (replay.DefaultFallbackAttempts
	// when zero; negative disables the fallback pass).
	FallbackAttempts int
	// Parallelism bounds the worker pool the Generator phase fans
	// cycles out on (zero means runtime.GOMAXPROCS(0), capped at
	// MaxParallelism). Every worker writes only its own cycle's report
	// slot, so the report is byte-identical at any setting; 1 forces the
	// sequential path.
	Parallelism int
}

// MaxParallelism caps Config.Parallelism: beyond this the per-cycle
// work units are too coarse for extra workers to help, and an
// accidental huge flag value must not spawn thousands of goroutines.
const MaxParallelism = 64

// EffectiveParallelism resolves Config.Parallelism: zero or negative
// defaults to runtime.GOMAXPROCS(0), and the result never exceeds
// MaxParallelism. wolfd reports this resolved value as the
// wolfd_analysis_parallelism gauge.
func (cfg *Config) EffectiveParallelism() int {
	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > MaxParallelism {
		p = MaxParallelism
	}
	return p
}

func (cfg *Config) detectSeeds() []int64 {
	if len(cfg.DetectSeeds) == 0 {
		return []int64{1}
	}
	return cfg.DetectSeeds
}

func (cfg *Config) edgeKinds() sdg.Kind {
	kinds := cfg.EdgeKinds
	if kinds == 0 {
		kinds = sdg.AllKinds
	}
	if cfg.DataDependency {
		kinds |= sdg.V
	}
	return kinds
}

// CycleReport is the pipeline outcome for one detected cycle.
type CycleReport struct {
	// Cycle is the detected potential deadlock.
	Cycle *detect.Cycle
	// Trace is the recorded execution the cycle was detected on.
	Trace *trace.Trace
	// Class is the verdict.
	Class Classification
	// PruneReason explains a FalseByPruner verdict.
	PruneReason *pruner.Explain
	// Kinds are the edge kinds Gs was built with, zero when it was not
	// (pruned, or not reached); the report keeps no graph, see Graph.
	Kinds sdg.Kind
	// GsSize is the paper's Vs statistic for this cycle (0 without Gs).
	GsSize int
	// ReplayAttempts counts steered reproduction runs performed.
	ReplayAttempts int
	// ReplayMethod says which pass confirmed the cycle: "steering"
	// (precise Gs-driven replay), "fallback" (the PCT-randomized
	// confirmation pass), or empty when not confirmed.
	ReplayMethod replay.Method
	// FallbackAttempts counts PCT-randomized confirmation runs performed.
	FallbackAttempts int
	// Divergence histograms the failed steered attempts by reason;
	// non-empty for every cycle that reached the Replayer without being
	// reproduced.
	Divergence replay.Divergence
	// Faults aggregates the scheduling perturbations injected across this
	// cycle's replay attempts (zero when injection is disabled).
	Faults sim.FaultStats
}

// Graph rebuilds the cycle's Gs from Cycle, Trace and Kinds as the
// Generator built it, for what needs it after the analysis (hit rates,
// timelines, dot); nil when the Generator built none.
func (cr *CycleReport) Graph() *sdg.Graph {
	if cr.Kinds == 0 {
		return nil
	}
	return sdg.BuildKinds(cr.Cycle, cr.Trace, cr.Kinds)
}

// DefectReport aggregates the cycles sharing one source-location
// signature (the paper's defect counting, Section 4.3).
type DefectReport struct {
	// Signature is the canonical sorted site list.
	Signature string
	// Cycles are the per-cycle reports.
	Cycles []*CycleReport
	// Class is the defect verdict: Confirmed if any cycle reproduced,
	// false if every cycle was refuted, Unknown otherwise.
	Class Classification
	// Method says which replay pass confirmed the defect: steering,
	// fallback, or empty when not Confirmed.
	Method replay.Method
	// Divergence aggregates the divergence histograms of the defect's
	// unreproduced cycles — the explanation an Unknown verdict carries.
	Divergence replay.Divergence
}

// classify derives the defect verdict from its cycles.
func (d *DefectReport) classify() {
	anyConfirmed, anyUnknown, anyGen, anyData := false, false, false, false
	for _, cr := range d.Cycles {
		switch cr.Class {
		case Confirmed:
			anyConfirmed = true
			// Steering beats fallback when different cycles of the defect
			// confirmed through different passes.
			if d.Method == replay.MethodNone || cr.ReplayMethod == replay.MethodSteering {
				d.Method = cr.ReplayMethod
			}
		case Unknown:
			anyUnknown = true
			if len(cr.Divergence) > 0 {
				if d.Divergence == nil {
					d.Divergence = make(replay.Divergence)
				}
				d.Divergence.Merge(cr.Divergence)
			}
		case FalseByGenerator:
			anyGen = true
		case FalseByData:
			anyData = true
		}
	}
	switch {
	case anyConfirmed:
		d.Class = Confirmed
	case anyUnknown:
		d.Class = Unknown
	case anyGen:
		d.Class = FalseByGenerator
	case anyData:
		d.Class = FalseByData
	default:
		d.Class = FalseByPruner
	}
}

// Timings records wall-clock durations of the pipeline phases. It is a
// derived view: every entry point aggregates the obs phase spans
// ("record", "cycle-detect", "prune", "generate", "replay") recorded
// during its run, so the same measurements feed the report, the wolfd
// histograms, and timeline exports. Uninstrumented comes from the
// baseline stage, not a phase span. Compare's two reports share
// Uninstrumented and CycleDetect (see Compare).
type Timings struct {
	// Uninstrumented is the bare program run time (same seeds, no
	// listeners; best of several repetitions), the baseline for the
	// paper's slowdown column.
	Uninstrumented time.Duration
	// Instrumented is the recorded execution time (listeners attached),
	// excluding post-mortem analysis.
	Instrumented time.Duration
	// CycleDetect covers the post-mortem lock-graph cycle search.
	CycleDetect time.Duration
	// Prune covers Algorithm 2.
	Prune time.Duration
	// Generate covers Algorithm 3.
	Generate time.Duration
	// Replay covers all reproduction runs.
	Replay time.Duration
}

// Detect is the total detection time: instrumented execution plus the
// cycle search.
func (t Timings) Detect() time.Duration { return t.Instrumented + t.CycleDetect }

// DetectionSlowdown is the instrumented execution time relative to the
// uninstrumented run (Table 1's Slowdown column: the runtime cost of
// recording; cycle search, pruning and generation happen after exit).
func (t Timings) DetectionSlowdown() float64 {
	if t.Uninstrumented <= 0 {
		return 0
	}
	return float64(t.Instrumented) / float64(t.Uninstrumented)
}

// TimingsFromRecorder derives phase timings from the spans recorded
// after mark (a position obtained from rec.Mark before the run).
// Uninstrumented is left zero: the baseline is not a pipeline phase.
func TimingsFromRecorder(rec *obs.Recorder, mark int) Timings {
	return Timings{
		Instrumented: rec.SumFrom(mark, "record"),
		CycleDetect:  rec.SumFrom(mark, "cycle-detect"),
		Prune:        rec.SumFrom(mark, "prune"),
		Generate:     rec.SumFrom(mark, "generate"),
		Replay:       rec.SumFrom(mark, "replay"),
	}
}

// Report is the result of analyzing one workload.
type Report struct {
	// Tool is "wolf" or "deadlockfuzzer".
	Tool string
	// Cycles holds one report per detected cycle (deduplicated across
	// detection seeds).
	Cycles []*CycleReport
	// Defects groups cycles by signature.
	Defects []*DefectReport
	// Timings are the phase durations.
	Timings Timings
}

// CountCycles tallies cycle verdicts: false positives (pruner,
// generator), confirmed, unknown.
func (r *Report) CountCycles() (pr, gen, confirmed, unknown int) {
	for _, cr := range r.Cycles {
		switch cr.Class {
		case FalseByPruner:
			pr++
		case FalseByGenerator, FalseByData:
			gen++
		case Confirmed:
			confirmed++
		default:
			unknown++
		}
	}
	return
}

// CountDefects tallies defect verdicts.
func (r *Report) CountDefects() (pr, gen, confirmed, unknown int) {
	for _, d := range r.Defects {
		switch d.Class {
		case FalseByPruner:
			pr++
		case FalseByGenerator, FalseByData:
			gen++
		case Confirmed:
			confirmed++
		default:
			unknown++
		}
	}
	return
}

// AvgStackLen is the paper's SL statistic averaged over all cycles.
func (r *Report) AvgStackLen() float64 {
	if len(r.Cycles) == 0 {
		return 0
	}
	sum := 0.0
	for _, cr := range r.Cycles {
		sum += cr.Cycle.AvgStackDepth()
	}
	return sum / float64(len(r.Cycles))
}

// AvgGsSize is the paper's Vs statistic averaged over unpruned cycles.
func (r *Report) AvgGsSize() float64 {
	n, sum := 0, 0
	for _, cr := range r.Cycles {
		if cr.GsSize > 0 {
			n++
			sum += cr.GsSize
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var sb strings.Builder
	byClass := make(map[Classification]int)
	for _, d := range r.Defects {
		byClass[d.Class]++
	}
	fmt.Fprintf(&sb, "[%s] defects: %d (false: %d pruner + %d generator + %d data, confirmed: %d, unknown: %d)\n",
		r.Tool, len(r.Defects), byClass[FalseByPruner], byClass[FalseByGenerator],
		byClass[FalseByData], byClass[Confirmed], byClass[Unknown])
	for _, d := range r.Defects {
		fmt.Fprintf(&sb, "  %-14s %s (%d cycles)", d.Class, d.Signature, len(d.Cycles))
		switch {
		case d.Class == Confirmed && d.Method != replay.MethodNone:
			fmt.Fprintf(&sb, " via %s", d.Method)
		case d.Class == Unknown && len(d.Divergence) > 0:
			fmt.Fprintf(&sb, " divergence[%s]", d.Divergence)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// cycleKey identifies a cycle across detection seeds for deduplication:
// the multiset of stable acquisition keys plus held contexts.
func cycleKey(c *detect.Cycle) string {
	parts := make([]string, 0, len(c.Tuples))
	for _, tp := range c.Tuples {
		held := make([]string, 0, len(tp.Held))
		for _, h := range tp.Held {
			held = append(held, h.Key.String())
		}
		sort.Strings(held)
		parts = append(parts, tp.Key.String()+"<"+strings.Join(held, ",")+">")
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// record runs one instrumented execution and returns its trace. The
// execution emits a "record" span on ctx's recorder, pre-measured so the
// instrumented time excludes trace finalization, matching the paper's
// slowdown statistic.
func record(ctx context.Context, f sim.Factory, seed int64, maxSteps int, timestamps bool) *trace.Trace {
	prog, opts := f()
	var vt *vclock.Tracker
	if timestamps {
		vt = vclock.NewTracker()
		opts.Listeners = append(opts.Listeners, vt)
	}
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, rec)
	if maxSteps > 0 {
		opts.MaxSteps = maxSteps
	}
	start := time.Now()
	sim.Run(prog, sim.NewRandomStrategy(seed), opts)
	dur := time.Since(start)
	tr := rec.Finish(seed)
	if r := obs.FromContext(ctx); r != nil {
		r.Observe("record", dur,
			obs.Attr{Key: "seed", Value: seed},
			obs.Attr{Key: "steps", Value: int64(tr.Steps)},
			obs.Attr{Key: "tuples", Value: int64(len(tr.Tuples))})
	}
	return tr
}

// search runs the lock-graph cycle search on one trace inside a
// "cycle-detect" span.
func search(ctx context.Context, tr *trace.Trace, cfg *Config) []*detect.Cycle {
	_, sp := obs.Start(ctx, "cycle-detect")
	cycles := detect.CyclesCtx(ctx, tr, detect.Config{MaxLength: cfg.MaxCycleLen})
	sp.Add("cycles", int64(len(cycles)))
	sp.End()
	return cycles
}

// detectAll records one execution per detection seed, searches each
// trace for cycles and deduplicates them across seeds. Detection never
// reads taus or clocks, so the cycles are the same with and without
// timestamps; only the Pruner needs them. One trace's search never
// returns two cycles with an equal cycleKey, so a single seed skips the
// keys.
func detectAll(ctx context.Context, f sim.Factory, cfg *Config, timestamps bool) []*CycleReport {
	seeds := cfg.detectSeeds()
	var seen map[string]bool
	if len(seeds) > 1 {
		seen = make(map[string]bool)
	}
	var out []*CycleReport
	for _, seed := range seeds {
		tr := record(ctx, f, seed, cfg.MaxSteps, timestamps)
		for _, c := range search(ctx, tr, cfg) {
			if seen != nil {
				key := cycleKey(c)
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			out = append(out, &CycleReport{Cycle: c, Trace: tr})
		}
	}
	return out
}

// baseline measures the best-of-3 uninstrumented run time over the
// detection seeds; the minimum filters scheduler and allocator noise on
// these microsecond-scale runs. One "baseline" span covers the whole
// measurement (all repetitions), while the returned duration is the
// minimum of a single pass.
func baseline(ctx context.Context, f sim.Factory, cfg *Config) time.Duration {
	_, sp := obs.Start(ctx, "baseline")
	best := time.Duration(0)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for _, seed := range cfg.detectSeeds() {
			prog, opts := f()
			if cfg.MaxSteps > 0 {
				opts.MaxSteps = cfg.MaxSteps
			}
			sim.Run(prog, sim.NewRandomStrategy(seed), opts)
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	sp.End()
	return best
}

// pruneCycles applies the Pruner (Algorithm 2) to every cycle in one
// batched PruneCtx call per recorded trace — the clocks a cycle is
// checked against belong to the trace it was detected on, and detection
// records one trace per seed. Each trace gets one "pruner.prune" span
// with aggregate counts. Traces recorded without clocks are skipped.
func pruneCycles(ctx context.Context, cycles []*CycleReport) {
	byTrace := make(map[*trace.Trace][]*CycleReport)
	var order []*trace.Trace // deterministic span emission order
	for _, cr := range cycles {
		if _, ok := byTrace[cr.Trace]; !ok {
			order = append(order, cr.Trace)
		}
		byTrace[cr.Trace] = append(byTrace[cr.Trace], cr)
	}
	for _, tr := range order {
		if ctx.Err() != nil || tr.Clocks == nil {
			continue
		}
		group := byTrace[tr]
		cs := make([]*detect.Cycle, len(group))
		for i, cr := range group {
			cs[i] = cr.Cycle
		}
		res := pruner.PruneCtx(ctx, cs, tr.Clocks)
		for i, cr := range group {
			if res.Verdicts[i] == pruner.False {
				cr.Class = FalseByPruner
				cr.PruneReason = res.Reasons[i]
			}
		}
	}
}

// generateCycles runs the Generator (Algorithm 3) over the cycles that
// survived pruning, fanning out across a worker pool bounded by
// cfg.EffectiveParallelism(), and stores each cycle's Gs in graphs at
// the cycle's index. Each worker writes only its own *CycleReport and
// graph slot, the recorded traces (and their lazily built shared index)
// are immutable once recording ends, and obs spans record into the
// context's mutex-protected recorder — so the fan-out is race-free and
// the report is independent of worker scheduling: results land in the
// report in original cycle order and every field is a pure function of
// (cycle, trace, cfg). Cancellation stops workers between cycles;
// cycles not reached keep their zero (Unknown) class and no graph.
func generateCycles(ctx context.Context, cycles []*CycleReport, graphs []*sdg.Graph, cfg *Config) {
	kinds := cfg.edgeKinds()
	gen := func(i int) {
		cr := cycles[i]
		if cr.Class == FalseByPruner {
			return
		}
		g := sdg.BuildKindsCtx(ctx, cr.Cycle, cr.Trace, kinds)
		graphs[i], cr.Kinds, cr.GsSize = g, kinds, g.Size()
		if !cfg.DisableGenerator && g.Cyclic(kinds) {
			cr.Class = FalseByGenerator
			// Attribute the refutation: if the graph is acyclic without
			// its V edges, only the data dependency proves infeasibility.
			if cfg.DataDependency && !g.Cyclic(kinds&^sdg.V) {
				cr.Class = FalseByData
			}
		}
	}
	workers := cfg.EffectiveParallelism()
	if workers > len(cycles) {
		workers = len(cycles)
	}
	if workers <= 1 {
		for i := range cycles {
			if ctx.Err() != nil {
				break
			}
			gen(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cycles) || ctx.Err() != nil {
					return
				}
				gen(i)
			}
		}()
	}
	wg.Wait()
}

// refute is WOLF's trace-only half: the Pruner (Algorithm 2, batched per
// recorded trace) and the Generator (Algorithm 3, optionally with the
// value-flow extension, fanned out across the configured worker pool),
// each inside its phase span. It returns each cycle's Gs at its index,
// for reproduce. It stops before a phase once ctx is cancelled; cycles
// not reached keep their Unknown class and no graph.
func refute(ctx context.Context, cycles []*CycleReport, cfg *Config) []*sdg.Graph {
	graphs := make([]*sdg.Graph, len(cycles))
	if ctx.Err() != nil {
		return graphs
	}
	_, sp := obs.Start(ctx, "prune")
	if !cfg.DisablePruner {
		pruneCycles(ctx, cycles)
	}
	sp.End()
	if ctx.Err() != nil {
		return graphs
	}
	_, sp = obs.Start(ctx, "generate")
	generateCycles(ctx, cycles, graphs, cfg)
	sp.End()
	return graphs
}

// reproduce is WOLF's Replayer (Algorithm 4): every cycle still Unknown
// is re-executed under its Gs, graphs[i] as refute returned it; a cycle
// the Generator never reached has none and is not replayed.
func reproduce(ctx context.Context, f sim.Factory, cycles []*CycleReport, graphs []*sdg.Graph, cfg *Config) {
	_, sp := obs.Start(ctx, "replay")
	for i, cr := range cycles {
		if cr.Class != Unknown || graphs[i] == nil {
			continue
		}
		res := replay.ReproduceCtx(ctx, f, graphs[i], cr.Cycle, replay.Config{
			Attempts:         cfg.ReplayAttempts,
			BaseSeed:         cfg.ReplaySeed,
			MaxSteps:         cfg.MaxSteps,
			Faults:           cfg.Faults,
			FallbackAttempts: cfg.FallbackAttempts,
		})
		cr.ReplayAttempts = res.Attempts
		cr.ReplayMethod = res.Method
		cr.FallbackAttempts = res.FallbackAttempts
		cr.Divergence = res.Divergence
		cr.Faults = res.Faults
		if res.Reproduced {
			cr.Class = Confirmed
		}
	}
	sp.End()
}

// fuzz is DeadlockFuzzer's reproduction: abstraction-based randomized
// scheduling of every cycle, with no pruning and no Gs.
func fuzz(ctx context.Context, f sim.Factory, cycles []*CycleReport, cfg *Config) {
	_, sp := obs.Start(ctx, "replay")
	for _, cr := range cycles {
		res := fuzzer.Reproduce(f, cr.Cycle, fuzzer.Config{
			Attempts: cfg.ReplayAttempts,
			BaseSeed: cfg.ReplaySeed,
			MaxSteps: cfg.MaxSteps,
		})
		cr.ReplayAttempts = res.Attempts
		if res.Reproduced {
			cr.Class = Confirmed
		}
	}
	sp.End()
}

// run is the wrapper every entry point shares: it attaches a recorder
// to ctx when it has none, runs stages, derives Timings from their spans
// (keeping the Uninstrumented a stage set) and groups cycles into defects.
func run(ctx context.Context, tool string, stages func(ctx context.Context, rep *Report)) *Report {
	rec := obs.FromContext(ctx)
	if rec == nil {
		rec = obs.NewRecorder()
		ctx = obs.WithRecorder(ctx, rec)
	}
	mark := rec.Mark()
	rep := &Report{Tool: tool}
	stages(ctx, rep)
	uninstrumented := rep.Timings.Uninstrumented
	rep.Timings = TimingsFromRecorder(rec, mark)
	rep.Timings.Uninstrumented = uninstrumented
	rep.group()
	return rep
}

// Analyze runs the full WOLF pipeline on the workload built by f.
func Analyze(f sim.Factory, cfg Config) *Report {
	return AnalyzeCtx(context.Background(), f, cfg)
}

// AnalyzeCtx is Analyze with observability: pipeline phases emit spans
// on the context's obs.Recorder (one is created and attached when the
// context carries none), and the report's Timings are derived from
// those spans. Callers that pass their own recorder — the wolfd worker
// pool feeding histograms, the CLI exporting a timeline — see exactly
// the measurements the report is built from.
func AnalyzeCtx(ctx context.Context, f sim.Factory, cfg Config) *Report {
	return run(ctx, "wolf", func(ctx context.Context, rep *Report) {
		rep.Timings.Uninstrumented = baseline(ctx, f, &cfg)
		rep.Cycles = detectAll(ctx, f, &cfg, true)
		graphs := refute(ctx, rep.Cycles, &cfg)
		reproduce(ctx, f, rep.Cycles, graphs, &cfg)
	})
}

// AnalyzeDF runs the DeadlockFuzzer baseline pipeline: iGoodLock
// detection (no timestamps), no pruning, abstraction-based randomized
// reproduction.
func AnalyzeDF(f sim.Factory, cfg Config) *Report {
	return AnalyzeDFCtx(context.Background(), f, cfg)
}

// AnalyzeDFCtx is AnalyzeDF with observability; see AnalyzeCtx.
func AnalyzeDFCtx(ctx context.Context, f sim.Factory, cfg Config) *Report {
	return run(ctx, "deadlockfuzzer", func(ctx context.Context, rep *Report) {
		rep.Timings.Uninstrumented = baseline(ctx, f, &cfg)
		rep.Cycles = detectAll(ctx, f, &cfg, false)
		fuzz(ctx, f, rep.Cycles, &cfg)
	})
}

// Compare runs WOLF and the DeadlockFuzzer baseline over one front half:
// one baseline, then one timestamped recording and one cycle search per
// detection seed. Each tool then reproduces its own CycleReports for the
// same cycles and traces, so both reports equal those of separate
// AnalyzeCtx and AnalyzeDFCtx runs except in Timings and in the fuzzer's
// (clocked) Trace. DeadlockFuzzer shares WOLF's Uninstrumented and
// CycleDetect; its Instrumented times one extra clock-free recording per
// seed, whose trace is discarded, so Figure 10's detection ratio keeps
// comparing WOLF's clocked recording with the baseline's plain one.
func Compare(ctx context.Context, f sim.Factory, cfg Config) (wolf, df *Report) {
	wolf = AnalyzeCtx(ctx, f, cfg)
	df = run(ctx, "deadlockfuzzer", func(ctx context.Context, rep *Report) {
		for _, seed := range cfg.detectSeeds() {
			record(ctx, f, seed, cfg.MaxSteps, false)
		}
		// WOLF's stages write only CycleReport fields, never the shared
		// cycles or traces, and group keeps rep.Cycles in search order.
		for _, cr := range wolf.Cycles {
			rep.Cycles = append(rep.Cycles, &CycleReport{Cycle: cr.Cycle, Trace: cr.Trace})
		}
		fuzz(ctx, f, rep.Cycles, &cfg)
	})
	df.Timings.Uninstrumented = wolf.Timings.Uninstrumented
	df.Timings.CycleDetect = wolf.Timings.CycleDetect
	return wolf, df
}

// group buckets cycle reports into defect reports by signature.
func (r *Report) group() {
	bySig := make(map[string]*DefectReport)
	for _, cr := range r.Cycles {
		sig := cr.Cycle.Signature()
		d := bySig[sig]
		if d == nil {
			d = &DefectReport{Signature: sig}
			bySig[sig] = d
			r.Defects = append(r.Defects, d)
		}
		d.Cycles = append(d.Cycles, cr)
	}
	for _, d := range r.Defects {
		d.classify()
	}
}
