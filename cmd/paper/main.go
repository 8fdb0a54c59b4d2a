// Command paper regenerates the evaluation artifacts of "Trace Driven
// Dynamic Deadlock Detection and Reproduction" (PPoPP 2014): Table 1
// (defect-level comparison of WOLF vs DeadlockFuzzer), Table 2
// (cycle-level comparison), Figure 8 (hit rates over repeated replays)
// and Figure 10 (relative overheads).
//
// Usage:
//
//	paper [-table1] [-table2] [-fig8] [-fig10] [-all]
//	      [-runs N] [-attempts N] [-workloads a,b,c]
//
// With no selection flags, -all is assumed. Absolute timings differ
// from the paper (different machine, simulated substrate); the tables
// print the paper's numbers alongside for shape comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wolf/internal/report"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table 1 (defect-level comparison)")
		table2    = flag.Bool("table2", false, "regenerate Table 2 (cycle-level comparison)")
		fig8      = flag.Bool("fig8", false, "regenerate Figure 8 (hit rates)")
		fig10     = flag.Bool("fig10", false, "regenerate Figure 10 (normalized overheads)")
		all       = flag.Bool("all", false, "regenerate everything")
		runs      = flag.Int("runs", 100, "replays per deadlock for Figure 8")
		attempts  = flag.Int("attempts", 5, "replay attempts per cycle for classification")
		workloads = flag.String("workloads", "", "comma-separated benchmark subset (default: all)")
		csvPath   = flag.String("csv", "", "also write machine-readable results to this CSV file")
		ext       = flag.Bool("ext", false, "also regenerate the value-flow extension comparison table")
	)
	flag.Parse()
	if !*table1 && !*table2 && !*fig8 && !*fig10 {
		*all = true
	}
	if *all {
		*table1, *table2, *fig8, *fig10 = true, true, true, true
	}

	cfg := report.Config{
		ReplayAttempts: *attempts,
		HitRateRuns:    *runs,
	}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}

	start := time.Now()
	fmt.Fprintln(os.Stderr, "running benchmark campaign (WOLF and DeadlockFuzzer pipelines)...")
	results, err := report.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *table1 {
		fmt.Println(report.Table1(results))
	}
	if *table2 {
		fmt.Println(report.Table2(results))
	}
	if *fig8 {
		fmt.Fprintf(os.Stderr, "measuring hit rates (%d runs per deadlock)...\n", *runs)
		report.MeasureHitRates(results, cfg)
		fmt.Println(report.Fig8(results))
	}
	if *fig10 {
		fmt.Println(report.Fig10(results))
	}
	if *ext {
		fmt.Fprintln(os.Stderr, "running the value-flow extension comparison...")
		fmt.Println(report.TableExt(report.RunExtension(results, cfg)))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := report.WriteCSV(f, results); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}
