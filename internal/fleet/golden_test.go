package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/replay"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// completionGoldenPath pins, for every registry workload, what a
// successful completion carries: the SHA-256 of its compact report
// bytes, its corpus summaries and its metrics tally.
const completionGoldenPath = "testdata/completion.json"

// goldenCompletion is one workload's line of the golden.
type goldenCompletion struct {
	Workload     string               `json:"workload"`
	ReportSHA256 string               `json:"report_sha256"`
	Summaries    []store.CycleSummary `json:"summaries"`
	Tally        Tally                `json:"tally"`
}

// pinnedAnalyze is the offline analysis with what varies between runs
// pinned: the phase timings are fixed. Every other unknown defect is
// marked confirmed by steering, after two starved attempts and one
// injected preemption per cycle, so every tally family has something to
// count (the offline pipeline never replays).
func pinnedAnalyze(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
	rep, err := core.AnalyzeTraceCtx(ctx, tr, cfg)
	if err != nil {
		return nil, err
	}
	rep.Timings = core.Timings{CycleDetect: time.Millisecond, Prune: 2 * time.Millisecond, Generate: 3 * time.Millisecond}
	confirm := true
	for _, d := range rep.Defects {
		if d.Class != core.Unknown {
			continue
		}
		if confirm {
			d.Class, d.Method = core.Confirmed, replay.MethodSteering
			for _, cr := range d.Cycles {
				cr.Class, cr.ReplayMethod = core.Confirmed, replay.MethodSteering
				cr.Divergence = replay.Divergence{replay.DivergenceStarved: 2}
				cr.Faults = sim.FaultStats{Preemptions: 1}
			}
		}
		confirm = !confirm
	}
	return rep, nil
}

// registryCompletions completes the detection trace of every registry
// workload, recorded on its first terminating seed (seed 1 when it has
// none: GlobalLockCrash wedges on every seed), and returns each
// completion as its golden line.
func registryCompletions(t *testing.T) []goldenCompletion {
	t.Helper()
	a := NewAnalyzerFor(nil, AnalyzerConfig{JobTimeout: 15 * time.Second, Analyze: pinnedAnalyze})
	var out []goldenCompletion
	for _, w := range workloads.Registry() {
		seed, ok := workloads.FindTerminatingSeed(w.New, 300)
		if !ok {
			seed = 1
		}
		req := a.Analyze(context.Background(), WorkView{Job: "j-000001", Source: "workload:" + w.Name, Trace: core.Record(w.New, seed, 0)})
		if !req.OK {
			t.Fatalf("%s: completion failed: %s", w.Name, req.Error)
		}
		sum := sha256.Sum256(req.Report)
		out = append(out, goldenCompletion{Workload: w.Name, ReportSHA256: hex.EncodeToString(sum[:]), Summaries: req.Summaries, Tally: req.Tally})
	}
	return out
}

// TestCompletionGolden: the completion of every registry workload's
// trace carries the report bytes, summaries and tally the golden pins,
// so a change to how a completion is derived cannot change what it
// says. Together the workloads count every tally family.
func TestCompletionGolden(t *testing.T) {
	raw, err := os.ReadFile(completionGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := registryCompletions(t)
	if len(got) != len(want) {
		t.Fatalf("%d registry workloads, golden has %d", len(got), len(want))
	}
	var all Tally
	for i, g := range got {
		line, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := json.Compact(&w, want[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, w.Bytes()) {
			t.Errorf("%s: completion differs from the golden\ngot  %s\nwant %s", g.Workload, line, w.Bytes())
		}
		all.Cycles += g.Tally.Cycles
		all.Pruned += g.Tally.Pruned
		all.Infeasible += g.Tally.Infeasible
		all.Confirmed += g.Tally.Confirmed
		all.Unknown += g.Tally.Unknown
		all.Faults += g.Tally.Faults
		if len(g.Tally.Confirmations) > 0 {
			all.Confirmations = g.Tally.Confirmations
		}
		if len(g.Tally.Divergence) > 0 {
			all.Divergence = g.Tally.Divergence
		}
	}
	if all.Cycles == 0 || all.Pruned == 0 || all.Infeasible == 0 || all.Confirmed == 0 || all.Unknown == 0 ||
		all.Faults == 0 || all.Confirmations == nil || all.Divergence == nil {
		t.Errorf("the registry leaves a tally family uncounted: %+v", all)
	}
}
