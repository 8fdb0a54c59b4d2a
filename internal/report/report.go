// Package report runs the benchmark suite through both pipelines and
// renders the paper's evaluation artifacts: Table 1 (defect-level
// comparison), Table 2 (cycle-level comparison), Figure 8 (hit rates)
// and Figure 10 (normalized overheads), each with the paper's reported
// numbers alongside the measured ones.
package report

import (
	"context"
	"fmt"
	"strings"
	"time"

	"wolf/internal/core"
	"wolf/internal/fuzzer"
	"wolf/internal/replay"
	"wolf/internal/workloads"
)

// Config controls a benchmark campaign.
type Config struct {
	// ReplayAttempts is the per-cycle reproduction budget (default 5).
	ReplayAttempts int
	// HitRateRuns is the number of replays per defect for Figure 8
	// (default 100; reduce for quick runs).
	HitRateRuns int
	// SeedTries bounds the search for a terminating detection seed.
	SeedTries int
	// Workloads restricts the campaign to the named benchmarks (all
	// Table 1 rows when empty).
	Workloads []string
}

func (c *Config) fill() {
	if c.ReplayAttempts <= 0 {
		c.ReplayAttempts = 5
	}
	if c.HitRateRuns <= 0 {
		c.HitRateRuns = 100
	}
	if c.SeedTries <= 0 {
		c.SeedTries = 300
	}
}

// Result is one benchmark's outcome under both tools.
type Result struct {
	// Workload is the benchmark.
	Workload workloads.Workload
	// Seed is the detection seed used.
	Seed int64
	// Wolf and DF are the two pipeline reports.
	Wolf, DF *core.Report
	// HitWolf and HitDF are Figure 8 hit rates (set by MeasureHitRates).
	HitWolf, HitDF float64
	// HitMeasured marks whether hit rates were computed.
	HitMeasured bool
}

// Run executes both pipelines on every selected workload; they share one
// detection (core.Compare).
func Run(cfg Config) ([]*Result, error) {
	cfg.fill()
	selected := workloads.All()
	if len(cfg.Workloads) > 0 {
		selected = selected[:0]
		for _, name := range cfg.Workloads {
			w, ok := workloads.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	var out []*Result
	for _, w := range selected {
		seed, ok := workloads.FindTerminatingSeed(w.New, cfg.SeedTries)
		if !ok {
			return nil, fmt.Errorf("workload %s: no terminating detection seed in %d tries", w.Name, cfg.SeedTries)
		}
		wolf, df := core.Compare(context.Background(), w.New, core.Config{DetectSeeds: []int64{seed}, ReplayAttempts: cfg.ReplayAttempts})
		out = append(out, &Result{Workload: w, Seed: seed, Wolf: wolf, DF: df})
	}
	return out, nil
}

// MeasureHitRates fills Figure 8 hit rates: for every defect that either
// tool confirmed, each tool replays the defect's first viable cycle
// cfg.HitRateRuns times; the benchmark's rate is the average across
// those defects (defects neither tool ever reproduced carry no signal
// and are excluded, mirroring the paper's per-deadlock averaging).
func MeasureHitRates(results []*Result, cfg Config) {
	cfg.fill()
	for _, r := range results {
		confirmed := confirmedSignatures(r)
		if len(confirmed) == 0 {
			// No reproducible deadlock: the benchmark has no Figure 8
			// bar (like cache4j in the paper).
			continue
		}
		var wolfSum, dfSum float64
		for sig := range confirmed {
			if cr := viableCycle(r.Wolf, sig); cr != nil {
				wolfSum += replay.HitRate(r.Workload.New, cr.Graph(), cr.Cycle, cfg.HitRateRuns, replay.Config{})
			}
			if cr := viableCycle(r.DF, sig); cr != nil {
				dfSum += fuzzer.HitRate(r.Workload.New, cr.Cycle, cfg.HitRateRuns, fuzzer.Config{})
			}
		}
		r.HitWolf = wolfSum / float64(len(confirmed))
		r.HitDF = dfSum / float64(len(confirmed))
		r.HitMeasured = true
	}
}

// confirmedSignatures returns defect signatures confirmed by either tool.
func confirmedSignatures(r *Result) map[string]bool {
	out := make(map[string]bool)
	for _, rep := range []*core.Report{r.Wolf, r.DF} {
		for _, d := range rep.Defects {
			if d.Class == core.Confirmed {
				out[d.Signature] = true
			}
		}
	}
	return out
}

// viableCycle returns the defect's first non-false cycle report with a
// Gs (for WOLF) or any non-false cycle (for DF).
func viableCycle(rep *core.Report, sig string) *core.CycleReport {
	for _, d := range rep.Defects {
		if d.Signature != sig {
			continue
		}
		for _, cr := range d.Cycles {
			if cr.Class.IsFalse() {
				continue
			}
			if rep.Tool == "wolf" && cr.GsSize == 0 {
				continue
			}
			return cr
		}
	}
	return nil
}

// Table1 renders the defect-level comparison with the paper's numbers
// in parentheses.
func Table1(results []*Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: defect-level comparison (measured, paper in parentheses)\n")
	fmt.Fprintf(&sb, "%-16s %9s %7s %7s | %-9s %-9s | %-9s %-9s | %-9s %-9s\n",
		"Benchmark", "Slowdown", "SL", "Vs", "Defects", "FP(Pr+Gen)", "TP WOLF", "TP DF", "UNK WOLF", "UNK DF")
	var mDef, mFP, mTPW, mTPD, mUnkW, mUnkD int
	for _, r := range results {
		p := r.Workload.Paper
		pr, gen, tpW, unkW := r.Wolf.CountDefects()
		_, _, tpD, unkD := r.DF.CountDefects()
		fmt.Fprintf(&sb, "%-16s %4.2f%5s %4.1f%3s %4.0f%3s | %3d (%3d) %3d+%d (%d+%d) %4d (%2d) %4d (%2d) %4d (%2d) %4d (%2d)\n",
			r.Workload.Name,
			r.Wolf.Timings.DetectionSlowdown(), paren1(p.Slowdown),
			r.Wolf.AvgStackLen(), "", r.Wolf.AvgGsSize(), "",
			len(r.Wolf.Defects), p.Defects,
			pr, gen, p.FPPruner, p.FPGen,
			tpW, p.TPWolf, tpD, p.TPDF,
			unkW, p.UnkWolf, unkD, p.UnkDF)
		mDef += len(r.Wolf.Defects)
		mFP += pr + gen
		mTPW += tpW
		mTPD += tpD
		mUnkW += unkW
		mUnkD += unkD
	}
	fmt.Fprintf(&sb, "%-16s %s\n", "Cumulative",
		fmt.Sprintf("defects=%d false=%d (%.1f%%) TP-WOLF=%d (%.1f%%) TP-DF=%d (%.1f%%) UNK-WOLF=%d (%.1f%%) UNK-DF=%d (%.1f%%)",
			mDef, mFP, pct(mFP, mDef), mTPW, pct(mTPW, mDef), mTPD, pct(mTPD, mDef),
			mUnkW, pct(mUnkW, mDef), mUnkD, pct(mUnkD, mDef)))
	sb.WriteString("Paper cumulative: defects=65 false=12 (18.5%) TP-WOLF=36 (55.4%) TP-DF=23 (35.4%) UNK-WOLF=17 (26.1%) UNK-DF=42 (64.6%)\n")
	return sb.String()
}

// Table2 renders the cycle-level comparison.
func Table2(results []*Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: cycle-level comparison (measured, paper in parentheses)\n")
	fmt.Fprintf(&sb, "%-16s %-12s | %-12s | %-10s %-10s | %-10s %-10s\n",
		"Benchmark", "Cycles", "FP WOLF", "TP WOLF", "TP DF", "UNK WOLF", "UNK DF")
	var mC, mFP, mTPW, mTPD, mUnkW, mUnkD int
	for _, r := range results {
		p := r.Workload.Paper
		pr, gen, tpW, unkW := r.Wolf.CountCycles()
		_, _, tpD, unkD := r.DF.CountCycles()
		fp := pr + gen
		fmt.Fprintf(&sb, "%-16s %4d (%4d) | %4d (%3d) | %4d (%3d) %4d (%3d) | %4d %4s %4d (%3d)\n",
			r.Workload.Name,
			len(r.Wolf.Cycles), p.Cycles,
			fp, p.CyclesFPWolf,
			tpW, p.CyclesTPWolf, tpD, p.CyclesTPDF,
			unkW, "", unkD, p.Cycles-p.CyclesTPDF)
		mC += len(r.Wolf.Cycles)
		mFP += fp
		mTPW += tpW
		mTPD += tpD
		mUnkW += unkW
		mUnkD += unkD
	}
	fmt.Fprintf(&sb, "Cumulative: cycles=%d FP=%d (%.1f%%) TP-WOLF=%d (%.1f%%) TP-DF=%d (%.1f%%) UNK-WOLF=%d (%.1f%%) UNK-DF=%d (%.1f%%)\n",
		mC, mFP, pct(mFP, mC), mTPW, pct(mTPW, mC), mTPD, pct(mTPD, mC),
		mUnkW, pct(mUnkW, mC), mUnkD, pct(mUnkD, mC))
	sb.WriteString("Paper cumulative: cycles=314 FP=88 (28.0%) TP-WOLF=141 (44.9%) TP-DF=60 (19.1%) UNK-WOLF=85 (27.1%) UNK-DF=254 (80.9%)\n")
	return sb.String()
}

// Fig8 renders the hit-rate comparison as horizontal bars.
func Fig8(results []*Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 8: hit rate of reproducing a deadlock (averaged per potential deadlock)\n")
	for _, r := range results {
		if !r.HitMeasured {
			continue
		}
		p := r.Workload.Paper
		fmt.Fprintf(&sb, "%-16s WOLF %4.2f |%-25s| (paper ≈ %.2f)\n",
			r.Workload.Name, r.HitWolf, bar(r.HitWolf, 25), p.HitWolf)
		fmt.Fprintf(&sb, "%-16s DF   %4.2f |%-25s| (paper ≈ %.2f)\n",
			"", r.HitDF, bar(r.HitDF, 25), p.HitDF)
	}
	return sb.String()
}

// Fig10 renders WOLF's detection and reproduction overheads normalized
// to DeadlockFuzzer's.
func Fig10(results []*Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 10: WOLF time normalized to DeadlockFuzzer (detection incl. Pruner+Generator)\n")
	for _, r := range results {
		det := ratio(
			r.Wolf.Timings.Detect()+r.Wolf.Timings.Prune+r.Wolf.Timings.Generate,
			r.DF.Timings.Detect())
		rep := ratio(r.Wolf.Timings.Replay, r.DF.Timings.Replay)
		fmt.Fprintf(&sb, "%-16s detection %5.2fx |%-20s|  reproduction %5.2fx |%-20s|\n",
			r.Workload.Name, det, bar(det/2.5, 20), rep, bar(rep/2.5, 20))
	}
	sb.WriteString("Paper: detection ≈ 1.1x across benchmarks; reproduction 0.8x–2.1x\n")
	return sb.String()
}

// ratio guards against zero denominators.
func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// bar renders v in [0,1] as a width-w run of '#'.
func bar(v float64, w int) string {
	n := int(v * float64(w))
	if n < 0 {
		n = 0
	}
	if n > w {
		n = w
	}
	return strings.Repeat("#", n)
}

// pct is a safe percentage.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// paren1 formats a paper value as "(x.xx)" or blank when absent.
func paren1(v float64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("(%.2f)", v)
}
