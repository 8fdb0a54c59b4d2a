package report

import (
	"fmt"
	"strings"

	"wolf/internal/core"
	"wolf/internal/workloads"
)

// ExtResult compares the base pipeline with the value-flow extension on
// one benchmark.
type ExtResult struct {
	// Workload is the benchmark.
	Workload workloads.Workload
	// Base and Ext are the two analyses.
	Base, Ext *core.Report
}

// RunExtension reruns each campaign result's WOLF analysis with the
// data-dependency extension enabled, at the same detection seed; the
// campaign's own WOLF report is the base.
func RunExtension(results []*Result, cfg Config) []*ExtResult {
	cfg.fill()
	out := make([]*ExtResult, 0, len(results))
	for _, r := range results {
		ext := core.Analyze(r.Workload.New, core.Config{
			DetectSeeds:    []int64{r.Seed},
			ReplayAttempts: cfg.ReplayAttempts,
			DataDependency: true,
		})
		out = append(out, &ExtResult{Workload: r.Workload, Base: r.Wolf, Ext: ext})
	}
	return out
}

// TableExt renders the extension comparison: per benchmark, how many
// defects each configuration leaves unknown (the manual-comprehension
// burden the paper wants to minimize) and where the difference went.
func TableExt(results []*ExtResult) string {
	var sb strings.Builder
	sb.WriteString("Extension: value-flow (data dependency) refutation — paper §4.4 future work\n")
	fmt.Fprintf(&sb, "%-16s | %-22s | %-22s | %s\n",
		"Benchmark", "base unk/conf/false", "ext unk/conf/false", "newly refuted by data")
	var totBaseUnk, totExtUnk int
	for _, r := range results {
		bPr, bGen, bConf, bUnk := r.Base.CountDefects()
		ePr, eGen, eConf, eUnk := r.Ext.CountDefects()
		data := 0
		for _, d := range r.Ext.Defects {
			if d.Class == core.FalseByData {
				data++
			}
		}
		fmt.Fprintf(&sb, "%-16s | %3d / %3d / %3d        | %3d / %3d / %3d        | %d\n",
			r.Workload.Name, bUnk, bConf, bPr+bGen, eUnk, eConf, ePr+eGen, data)
		totBaseUnk += bUnk
		totExtUnk += eUnk
	}
	fmt.Fprintf(&sb, "Unknown defects left for manual analysis: %d → %d\n", totBaseUnk, totExtUnk)
	return sb.String()
}
