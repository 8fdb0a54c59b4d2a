package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wolf/internal/workloads"
)

// gsGoldenPath pins, for every registry workload under the default
// config and under DataDependency, each cycle's verdict, Gs size and
// the SHA-256 of its Gs rendering.
var gsGoldenPath = filepath.Join("testdata", "gs.json")

// gsCycle is one cycle's line of the Gs golden.
type gsCycle struct {
	Class  string `json:"class"`
	GsSize int    `json:"gs_size"`
	// GsSHA256 hashes the graph's String(); empty when no graph exists.
	GsSHA256 string `json:"gs_sha256,omitempty"`
}

// gsRun is one workload analysis in the Gs golden.
type gsRun struct {
	Workload       string    `json:"workload"`
	DataDependency bool      `json:"data_dependency"`
	Cycles         []gsCycle `json:"cycles"`
}

// TestGsGolden: every registry workload, analyzed on its first
// terminating seed (seed 1 when it has none) with and without the
// value-flow extension, reaches the verdicts, Gs sizes and Gs graphs
// the golden pins, false(data) attribution included. Jigsaw's two
// analyses take several seconds and are skipped under -short.
func TestGsGolden(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("rewrite the golden without -short: it pins Jigsaw too")
	}
	var got []gsRun
	for _, w := range workloads.Registry() {
		if w.Name == "Jigsaw" && testing.Short() {
			continue
		}
		seed, ok := workloads.FindTerminatingSeed(w.New, 300)
		if !ok {
			seed = 1
		}
		for _, data := range []bool{false, true} {
			rep := AnalyzeCtx(context.Background(), w.New, Config{DetectSeeds: []int64{seed}, ReplayAttempts: 5, DataDependency: data})
			run := gsRun{Workload: w.Name, DataDependency: data, Cycles: []gsCycle{}}
			for _, cr := range rep.Cycles {
				c := gsCycle{Class: cr.Class.String(), GsSize: cr.GsSize}
				if g := cr.Graph(); g != nil {
					sum := sha256.Sum256([]byte(g.String()))
					c.GsSHA256 = hex.EncodeToString(sum[:])
				}
				run.Cycles = append(run.Cycles, c)
			}
			got = append(got, run)
		}
	}
	if *update {
		// One run per line, as in the completion golden.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, r := range got {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(gsGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(gsGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want []gsRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, w := range want {
		if w.Workload == "Jigsaw" && testing.Short() {
			continue
		}
		if i == len(got) {
			t.Fatalf("golden has more runs than the registry, from %s", w.Workload)
		}
		g := got[i]
		i++
		gl, _ := json.Marshal(g)
		wl, _ := json.Marshal(w)
		if !bytes.Equal(gl, wl) {
			t.Errorf("%s (data dependency %v) differs from the golden\ngot  %s\nwant %s", w.Workload, w.DataDependency, gl, wl)
		}
	}
	if i != len(got) {
		t.Fatalf("%d registry runs, golden has %d", len(got), i)
	}
}
