// Benchmarks regenerating the paper's evaluation artifacts. One
// benchmark per table/figure, with sub-benchmarks per workload, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// Custom metrics reported alongside ns/op:
//
//	defects, confirmed, false-pos, unknown — defect classification
//	hit-rate — fraction of replays reproducing the deadlock (Figure 8)
//	det-ratio, rep-ratio — WOLF/DF time ratios (Figure 10)
package wolf_test

import (
	"testing"

	"wolf"
	"wolf/internal/core"
	"wolf/internal/fuzzer"
	"wolf/internal/replay"
	"wolf/internal/workloads"
)

// table1Workloads lists the Table 1 rows exercised by the benchmarks.
// The heavyweight Jigsaw row runs under its own sub-benchmark so the
// cheap rows stay readable.
var table1Workloads = []string{
	"cache4j", "Jigsaw", "JavaLogging",
	"ArrayList", "Stack", "LinkedList",
	"HashMap", "TreeMap", "WeakHashMap", "LinkedHashMap", "IdentityHashMap",
}

// seedOf caches terminating detection seeds per workload.
var seedOf = map[string]int64{}

// seedFor finds (and caches) a terminating detection seed.
func seedFor(b *testing.B, w workloads.Workload) int64 {
	if s, ok := seedOf[w.Name]; ok {
		return s
	}
	s, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		b.Fatalf("%s: no terminating seed", w.Name)
	}
	seedOf[w.Name] = s
	return s
}

// BenchmarkTable1 runs the full WOLF pipeline (detection, pruning,
// generation, replay classification) per workload — the work behind
// each Table 1 row.
func BenchmarkTable1(b *testing.B) {
	for _, name := range table1Workloads {
		w, _ := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			seed := seedFor(b, w)
			var rep *wolf.Report
			for i := 0; i < b.N; i++ {
				rep = wolf.Analyze(w.New, wolf.Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5})
			}
			pr, gen, conf, unk := rep.CountDefects()
			b.ReportMetric(float64(len(rep.Defects)), "defects")
			b.ReportMetric(float64(pr+gen), "false-pos")
			b.ReportMetric(float64(conf), "confirmed")
			b.ReportMetric(float64(unk), "unknown")
		})
	}
}

// BenchmarkTable2 runs the DeadlockFuzzer baseline pipeline per
// workload — Table 2 compares the tools per cycle, and the baseline's
// cycle-level classification is the differing half of that table.
func BenchmarkTable2(b *testing.B) {
	for _, name := range table1Workloads {
		w, _ := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			seed := seedFor(b, w)
			var rep *wolf.Report
			for i := 0; i < b.N; i++ {
				rep = wolf.AnalyzeDeadlockFuzzer(w.New, wolf.Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5})
			}
			_, _, conf, unk := rep.CountCycles()
			b.ReportMetric(float64(len(rep.Cycles)), "cycles")
			b.ReportMetric(float64(conf), "confirmed")
			b.ReportMetric(float64(unk), "unknown")
		})
	}
}

// fig8Workloads are the Figure 8 subjects (benchmarks with confirmed
// deadlocks).
var fig8Workloads = []string{"JavaLogging", "ArrayList", "HashMap", "Figure9"}

// BenchmarkFig8 measures one steered replay per iteration and reports
// the observed hit rate for both tools — the Figure 8 measurement loop.
func BenchmarkFig8(b *testing.B) {
	for _, name := range fig8Workloads {
		w, _ := workloads.ByName(name)
		seed := int64(0)
		b.Run(name+"/WOLF", func(b *testing.B) {
			seed = seedFor(b, w)
			rep := core.Analyze(w.New, core.Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5})
			cr := firstConfirmed(b, rep)
			g := cr.Graph()
			hits := 0
			for i := 0; i < b.N; i++ {
				out := replay.Attempt(w.New, g, cr.Cycle, int64(i), 0)
				if replay.Hit(out, cr.Cycle) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit-rate")
		})
		b.Run(name+"/DF", func(b *testing.B) {
			rep := core.Analyze(w.New, core.Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5})
			cr := firstConfirmed(b, rep)
			hits := 0
			for i := 0; i < b.N; i++ {
				out := fuzzer.Attempt(w.New, cr.Cycle, int64(i), 0)
				if fuzzer.Hit(out, cr.Cycle) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit-rate")
		})
	}
}

// firstConfirmed returns a confirmed cycle report, preferring a cycle
// whose deadlocking acquisitions come from distinct source locations —
// the asymmetric deadlocks are the ones where the tools differ most.
func firstConfirmed(b *testing.B, rep *core.Report) *core.CycleReport {
	b.Helper()
	var fallback *core.CycleReport
	for _, cr := range rep.Cycles {
		if cr.Class != core.Confirmed || cr.Graph() == nil {
			continue
		}
		sites := cr.Cycle.Sites()
		if len(sites) == 2 && sites[0] != sites[1] {
			return cr
		}
		if fallback == nil {
			fallback = cr
		}
	}
	if fallback == nil {
		b.Fatal("no confirmed cycle")
	}
	return fallback
}

// BenchmarkFig10 measures both tools end to end and reports WOLF's
// detection and reproduction times normalized to DeadlockFuzzer's.
func BenchmarkFig10(b *testing.B) {
	for _, name := range []string{"JavaLogging", "HashMap", "ArrayList", "Jigsaw"} {
		w, _ := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			seed := seedFor(b, w)
			cfg := wolf.Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5}
			var detRatio, repRatio float64
			for i := 0; i < b.N; i++ {
				wr := wolf.Analyze(w.New, cfg)
				dr := wolf.AnalyzeDeadlockFuzzer(w.New, cfg)
				wd := wr.Timings.Detect() + wr.Timings.Prune + wr.Timings.Generate
				if dd := dr.Timings.Detect(); dd > 0 {
					detRatio = float64(wd) / float64(dd)
				}
				if dr.Timings.Replay > 0 {
					repRatio = float64(wr.Timings.Replay) / float64(dr.Timings.Replay)
				}
			}
			b.ReportMetric(detRatio, "det-ratio")
			b.ReportMetric(repRatio, "rep-ratio")
		})
	}
}

// BenchmarkAblation quantifies each pipeline component's contribution
// on the Jigsaw workload (see DESIGN.md): disabling the Pruner or the
// Generator moves their false positives into the unknown bucket, and
// dropping the type-C context edges from Gs reduces replay reliability.
func BenchmarkAblation(b *testing.B) {
	w, _ := workloads.ByName("Jigsaw")
	variants := []struct {
		name string
		cfg  func(seed int64) wolf.Config
	}{
		{"Full", func(s int64) wolf.Config {
			return wolf.Config{DetectSeeds: []int64{s}, ReplayAttempts: 5}
		}},
		{"NoPruner", func(s int64) wolf.Config {
			return wolf.Config{DetectSeeds: []int64{s}, ReplayAttempts: 5, DisablePruner: true}
		}},
		{"NoGenerator", func(s int64) wolf.Config {
			return wolf.Config{DetectSeeds: []int64{s}, ReplayAttempts: 5, DisableGenerator: true}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			seed := seedFor(b, w)
			var rep *wolf.Report
			for i := 0; i < b.N; i++ {
				rep = wolf.Analyze(w.New, v.cfg(seed))
			}
			pr, gen, conf, unk := rep.CountDefects()
			b.ReportMetric(float64(pr+gen), "false-pos")
			b.ReportMetric(float64(conf), "confirmed")
			b.ReportMetric(float64(unk), "unknown")
		})
	}
}

// BenchmarkAblationNoContextEdges compares replay hit rates with and
// without the type-C edges on the Figure 9 workload, where the context
// ordering is what makes the mixed deadlock reproducible.
func BenchmarkAblationNoContextEdges(b *testing.B) {
	w, _ := workloads.ByName("Figure9")
	for _, v := range []struct {
		name string
		cfg  wolf.Config
	}{
		{"AllEdges", wolf.Config{DetectSeeds: []int64{1}, ReplayAttempts: 5}},
		{"NoC", wolf.Config{DetectSeeds: []int64{1}, ReplayAttempts: 5, EdgeKinds: 1 | 4}}, // D|P
	} {
		b.Run(v.name, func(b *testing.B) {
			rep := core.Analyze(w.New, core.Config(v.cfg))
			// The asymmetric addAll/removeAll cycle is the one whose
			// reproduction depends on the context ordering; select it by
			// signature regardless of how the weakened pipeline
			// classified it.
			var target *core.CycleReport
			for _, cr := range rep.Cycles {
				sites := cr.Cycle.Sites()
				if cr.Graph() != nil && !cr.Class.IsFalse() && len(sites) == 2 && sites[0] != sites[1] {
					target = cr
					break
				}
			}
			if target == nil {
				b.Fatal("no asymmetric cycle")
			}
			g := target.Graph()
			hits := 0
			for i := 0; i < b.N; i++ {
				out := replay.Attempt(w.New, g, target.Cycle, int64(i), 0)
				if replay.Hit(out, target.Cycle) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit-rate")
		})
	}
}
