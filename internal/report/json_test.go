package report

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"wolf/internal/core"
	"wolf/internal/fingerprint"
	"wolf/internal/workloads"
)

// TestFromCoreFigure4: the wire view of an offline Figure 4 analysis
// carries both defects with their verdicts and round-trips through
// encoding/json.
func TestFromCoreFigure4(t *testing.T) {
	w, ok := workloads.ByName("Figure4")
	if !ok {
		t.Fatal("Figure4 not registered")
	}
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		t.Fatal("no terminating seed")
	}
	tr := core.Record(w.New, seed, 0)
	rep := core.AnalyzeTrace(tr, core.Config{})

	jr := FromCore(rep)
	if jr.Tool != "wolf(offline)" {
		t.Fatalf("tool = %q", jr.Tool)
	}
	if len(jr.Defects) != 2 {
		t.Fatalf("defects = %d, want 2:\n%v", len(jr.Defects), rep)
	}
	classes := map[string]int{}
	for _, d := range jr.Defects {
		classes[d.Class]++
	}
	// θ1 is refuted by the Pruner; θ2 survives (offline analysis cannot
	// replay, so it stays unknown).
	if classes["false(pruner)"] != 1 || classes["unknown"] != 1 {
		t.Fatalf("defect classes = %v", classes)
	}
	if len(jr.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(jr.Cycles))
	}
	for _, c := range jr.Cycles {
		if len(c.Threads) == 0 || len(c.Locks) == 0 || c.Signature == "" {
			t.Fatalf("incomplete cycle view: %+v", c)
		}
		if c.Class == "unknown" && !c.HasGraph {
			t.Fatalf("surviving cycle lost its graph: %+v", c)
		}
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(jr); err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != jr.Tool || len(back.Defects) != len(jr.Defects) || len(back.Cycles) != len(jr.Cycles) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Timings != jr.Timings || back.Timings == (JSONTimings{}) {
		t.Fatal("timings lost")
	}
}

// TestFromCoreKeepsEdges: each wire cycle keeps the sorted edge
// abstractions its fingerprint hashes, off the wire: the report bytes
// carry no edges, and a decoded report re-encodes to the same bytes.
func TestFromCoreKeepsEdges(t *testing.T) {
	w, ok := workloads.ByName("Jigsaw")
	if !ok {
		t.Fatal("Jigsaw not registered")
	}
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		t.Fatal("no terminating seed")
	}
	rep := core.AnalyzeTrace(core.Record(w.New, seed, 0), core.Config{})
	jr := FromCore(rep)
	if len(jr.Cycles) == 0 {
		t.Fatal("no cycles")
	}
	for i := range jr.Cycles {
		c, cyc := &jr.Cycles[i], rep.Cycles[i].Cycle
		if !reflect.DeepEqual(c.Edges(), fingerprint.Edges(cyc)) {
			t.Fatalf("cycle %d edges = %+v, want %+v", i, c.Edges(), fingerprint.Edges(cyc))
		}
		if fp := fingerprint.Of(cyc); c.Fingerprint != fp || fingerprint.Hash(c.Edges()) != fp {
			t.Fatalf("cycle %d fingerprint = %s, its edges hash to %s, want %s", i, c.Fingerprint, fingerprint.Hash(c.Edges()), fp)
		}
	}
	raw, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles[0].Edges() != nil {
		t.Fatal("a decoded report carries edges")
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Fatalf("report bytes changed across a round trip:\n%.300s\n%.300s", raw, again)
	}
}
