package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"wolf/internal/obs"
	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// TestOfflineAnalysisRoundTrip: record a trace, serialize it, reload it,
// and run the offline pipeline — verdicts match the online pipeline up
// to replay (confirmed defects appear as unknown offline).
func TestOfflineAnalysisRoundTrip(t *testing.T) {
	seed := findDetectionSeed(t, figure2Factory)
	tr := Record(figure2Factory, seed, 0)
	if len(tr.Tuples) == 0 {
		t.Fatal("empty trace")
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	offline := AnalyzeTrace(loaded, Config{})
	online := Analyze(figure2Factory, Config{DetectSeeds: []int64{seed}})
	if len(offline.Defects) != len(online.Defects) {
		t.Fatalf("offline defects = %d, online = %d", len(offline.Defects), len(online.Defects))
	}
	for _, od := range offline.Defects {
		var match *DefectReport
		for _, nd := range online.Defects {
			if nd.Signature == od.Signature {
				match = nd
			}
		}
		if match == nil {
			t.Fatalf("offline defect %s not found online", od.Signature)
		}
		switch match.Class {
		case Confirmed:
			if od.Class != Unknown {
				t.Errorf("%s: offline class %v, want unknown (no replay offline)", od.Signature, od.Class)
			}
		default:
			if od.Class != match.Class {
				t.Errorf("%s: offline class %v, online %v", od.Signature, od.Class, match.Class)
			}
		}
	}
}

// TestOfflineWithoutClocks: a trace without vector clocks (base
// recorder) skips pruning but still runs the Generator.
func TestOfflineWithoutClocks(t *testing.T) {
	seed := findDetectionSeed(t, fig4Factory)
	tr := Record(fig4Factory, seed, 0)
	tr.Clocks = nil
	rep := AnalyzeTrace(tr, Config{})
	pr, _, _, _ := rep.CountDefects()
	if pr != 0 {
		t.Fatalf("pruner ran without clocks: %d", pr)
	}
	if len(rep.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(rep.Cycles))
	}
}

// TestDefectGraphMatchesAnalysis: for every registry workload on its
// first terminating seed (seed 1 when it has none), with and without the
// value-flow extension, DefectGraph draws for every defect signature and
// for the empty one the Gs that Report.GsCycle picks from a full
// AnalyzeTrace report, with the same String() and DOT, from exactly one
// "sdg.build" span, or none when the defect has no graph. Jigsaw, the
// one registry workload with type-V edges, runs under -short too: the
// offline analysis needs no replay.
func TestDefectGraphMatchesAnalysis(t *testing.T) {
	for _, w := range workloads.Registry() {
		seed, ok := workloads.FindTerminatingSeed(w.New, 300)
		if !ok {
			seed = 1
		}
		tr := Record(w.New, seed, 0)
		for _, data := range []bool{false, true} {
			cfg := Config{DataDependency: data}
			full := AnalyzeTrace(tr, cfg)
			sigs := []string{""}
			for _, d := range full.Defects {
				sigs = append(sigs, d.Signature)
			}
			for _, sig := range sigs {
				name := fmt.Sprintf("%s data=%v signature %q", w.Name, data, sig)
				wantSig, wantDOT, wantStr := "", "", ""
				if d, cr := full.GsCycle(sig); cr != nil {
					if g := cr.Graph(); g != nil {
						wantSig, wantDOT, wantStr = d.Signature, g.DOT(d.Signature), g.String()
					}
				}
				rec := obs.NewRecorder()
				gotSig, g, err := DefectGraph(obs.WithRecorder(context.Background(), rec), tr, cfg, sig)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				builds := 0
				if wantDOT != "" {
					builds = 1
				}
				if n := rec.Count("sdg.build"); n != builds {
					t.Errorf("%s: %d sdg.build spans, want %d", name, n, builds)
				}
				switch {
				case g == nil && wantDOT != "":
					t.Errorf("%s: no graph, want the one of defect %s", name, wantSig)
				case g == nil:
				case wantDOT == "":
					t.Errorf("%s: graph of %s, want none", name, gotSig)
				case gotSig != wantSig || g.String() != wantStr || g.DOT(gotSig) != wantDOT:
					t.Errorf("%s: graph of %s differs from the full analysis's graph of %s\ngot  %s\nwant %s",
						name, gotSig, wantSig, g, wantStr)
				}
			}
		}
	}
}
