// Command wolf runs the WOLF deadlock analysis pipeline on a named
// benchmark workload and prints every detected cycle's classification.
//
// Usage:
//
//	wolf -workload Jigsaw [-df] [-attempts N] [-seed N] [-v]
//	wolf -workload Figure4 -faults rate=0.1,seed=7
//	wolf -list
//
// -df runs the DeadlockFuzzer baseline instead; -v additionally prints
// each cycle's threads, locks and synchronization dependency graph size.
// -faults injects deterministic scheduling perturbations (preemptions,
// stalls, spurious wakeups, delayed grants) into every replay run to
// exercise reproduction robustness; see sim.ParseFaultSpec for the
// spec syntax.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"wolf/internal/core"
	"wolf/internal/immunize"
	"wolf/internal/obs"
	"wolf/internal/race"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

func main() {
	var (
		name     = flag.String("workload", "Figure4", "benchmark name (see -list)")
		list     = flag.Bool("list", false, "list available workloads")
		df       = flag.Bool("df", false, "run the DeadlockFuzzer baseline instead of WOLF")
		attempts = flag.Int("attempts", 5, "replay attempts per cycle")
		seed     = flag.Int64("seed", 0, "detection schedule seed (0 = search for a terminating one)")
		verbose  = flag.Bool("v", false, "print per-cycle details")
		data     = flag.Bool("data", false, "enable the value-flow (data dependency) extension")
		ranked   = flag.Bool("rank", false, "print defects in triage order instead of discovery order")
		record   = flag.String("record", "", "record the detection trace to this file and exit")
		offline  = flag.String("trace", "", "analyze a recorded trace file instead of executing (no replay)")
		races    = flag.Bool("races", false, "also run the FastTrack-style race detector on the detection run")
		dot      = flag.String("dot", "", "print the synchronization dependency graph of the defect with this signature as Graphviz dot")
		protect  = flag.Int("immunize", 0, "after analysis, run N random executions with and without Dimmunix-style avoidance of the confirmed deadlocks")
		timeline = flag.String("timeline", "", "write a Chrome trace-event timeline of the analysis to this file (load in Perfetto)")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof on this address (for example localhost:6060)")
		faults   = flag.String("faults", "", "inject scheduling faults during replay, e.g. rate=0.1,seed=7,kinds=preempt+stall")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		bi := obs.ReadBuildInfo()
		fmt.Printf("wolf %s %s", bi.Version, bi.GoVersion)
		if bi.Revision != "" {
			fmt.Printf(" %s", bi.Revision)
		}
		fmt.Println()
		return
	}

	faultCfg, err := sim.ParseFaultSpec(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -faults %q: %v\n", *faults, err)
		os.Exit(2)
	}

	if *debug != "" {
		obs.ServeDebug(*debug)
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", *debug)
	}

	if *list {
		for _, w := range workloads.Registry() {
			fmt.Println(w.Name)
		}
		return
	}

	if *offline != "" {
		f, err := os.Open(*offline)
		check(err)
		defer f.Close()
		tr, err := trace.Decode(f)
		check(err)
		rep := core.AnalyzeTrace(tr, core.Config{DataDependency: *data})
		fmt.Printf("offline analysis of %s (seed %d, %d tuples)\n", *offline, tr.Seed, len(tr.Tuples))
		fmt.Print(rep)
		return
	}

	w, ok := workloads.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *name)
		os.Exit(1)
	}
	s := *seed
	if s == 0 {
		found, ok := workloads.FindTerminatingSeed(w.New, 300)
		if !ok {
			// A workload that wedges on every seed (GlobalLockCrash's
			// crashed holder) is still analyzable from its wedged run.
			fmt.Fprintf(os.Stderr, "note: %s has no terminating detection seed in 1..300; using seed 1\n", w.Name)
			found = 1
		}
		s = found
	}
	if *record != "" {
		tr := core.Record(w.New, s, 0)
		f, err := os.Create(*record)
		check(err)
		defer f.Close()
		// The binary format is the wolfd ingest hot path; JSON stays the
		// default for greppability. -trace sniffs the format either way.
		write := tr.Write
		if strings.HasSuffix(*record, ".bin") || strings.HasSuffix(*record, ".wtrc") {
			write = tr.WriteBinary
		}
		check(write(f))
		fmt.Printf("recorded %d tuples (%d steps) from %s seed %d to %s\n",
			len(tr.Tuples), tr.Steps, w.Name, s, *record)
		return
	}

	cfg := core.Config{DetectSeeds: []int64{s}, ReplayAttempts: *attempts, DataDependency: *data, Faults: faultCfg}
	ctx := context.Background()
	var rec *obs.Recorder
	if *timeline != "" {
		rec = obs.NewRecorder()
		ctx = obs.WithRecorder(ctx, rec)
	}
	var rep *core.Report
	if *df {
		rep = core.AnalyzeDFCtx(ctx, w.New, cfg)
	} else {
		rep = core.AnalyzeCtx(ctx, w.New, cfg)
	}
	fmt.Printf("workload %s, detection seed %d\n", w.Name, s)
	if faultCfg.Enabled() {
		var injected int
		for _, cr := range rep.Cycles {
			injected += cr.Faults.Total()
		}
		fmt.Printf("fault injection %s: %d faults injected across replays\n", faultCfg, injected)
	}
	fmt.Print(rep)
	if *timeline != "" {
		tl := core.BuildTimeline(w.New, cfg, rep)
		// Process 3 is the pipeline itself: one track per phase span.
		tl.Process(3, "pipeline")
		rec.WriteTimeline(tl, 3)
		out, err := os.Create(*timeline)
		check(err)
		check(tl.WriteJSON(out))
		check(out.Close())
		fmt.Printf("timeline: %d events written to %s\n", tl.Len(), *timeline)
	}
	if *dot != "" {
		if d, cr := rep.GsCycle(*dot); cr != nil {
			if g := cr.Graph(); g != nil {
				fmt.Print(g.DOT(d.Signature))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "no graph for signature %q (pruned, or unknown signature)\n", *dot)
		os.Exit(1)
	}
	if *ranked {
		fmt.Println("triage order:")
		for i, d := range rep.Rank() {
			fmt.Printf("  %2d. %-16s %s (%d cycles)\n", i+1, d.Class, d.Signature, len(d.Cycles))
		}
	}
	fmt.Printf("detection slowdown %.2fx, SL %.1f, Vs %.1f\n",
		rep.Timings.DetectionSlowdown(), rep.AvgStackLen(), rep.AvgGsSize())
	if *protect > 0 {
		base := immunize.Baseline(w.New, *protect, s+10_000)
		prot := immunize.Protect(w.New, rep, *protect, s+10_000)
		fmt.Printf("immunization: %d/%d unprotected runs deadlocked, %d/%d protected runs deadlocked\n",
			base, *protect, prot, *protect)
	}
	if *races {
		found, _ := race.Check(w.New, sim.NewRandomStrategy(s))
		if len(found) == 0 {
			fmt.Println("no data races on shared vars")
		} else {
			fmt.Printf("data races (%d):\n%s", len(found), race.Summary(found))
		}
	}
	if *verbose {
		for _, cr := range rep.Cycles {
			fmt.Printf("\n%v\n  class: %v", cr.Cycle, cr.Class)
			if cr.PruneReason != nil {
				fmt.Printf(" (%s: %s vs %s)", cr.PruneReason.Rule, cr.PruneReason.ThreadA, cr.PruneReason.ThreadB)
			}
			if cr.GsSize > 0 {
				fmt.Printf(", |Gs| = %d", cr.GsSize)
			}
			if cr.ReplayAttempts > 0 {
				fmt.Printf(", %d replay attempt(s)", cr.ReplayAttempts)
			}
			fmt.Println()
		}
	}
}

// check exits with err unless it is nil.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
