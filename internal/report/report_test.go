package report

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
	"time"

	"wolf/internal/core"
)

// runSubset runs a cheap two-benchmark campaign.
func runSubset(t *testing.T) []*Result {
	t.Helper()
	results, err := Run(Config{
		Workloads:      []string{"HashMap", "JavaLogging"},
		ReplayAttempts: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	return results
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(Config{Workloads: []string{"missing"}}); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestTable1Rendering(t *testing.T) {
	results := runSubset(t)
	out := Table1(results)
	for _, want := range []string{"HashMap", "JavaLogging", "Cumulative", "Paper cumulative", "Slowdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	results := runSubset(t)
	out := Table2(results)
	for _, want := range []string{"Cycles", "HashMap", "Cumulative"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Rendering(t *testing.T) {
	results := runSubset(t)
	MeasureHitRates(results, Config{HitRateRuns: 10})
	out := Fig8(results)
	if !strings.Contains(out, "WOLF") || !strings.Contains(out, "DF") {
		t.Fatalf("Fig8 output malformed:\n%s", out)
	}
	for _, r := range results {
		if !r.HitMeasured {
			t.Error("hit rates not measured")
		}
		if r.HitWolf < r.HitDF {
			t.Errorf("%s: WOLF hit rate %.2f below DF %.2f", r.Workload.Name, r.HitWolf, r.HitDF)
		}
		if r.HitWolf <= 0 {
			t.Errorf("%s: WOLF hit rate is zero", r.Workload.Name)
		}
	}
}

func TestFig10Rendering(t *testing.T) {
	results := runSubset(t)
	out := Fig10(results)
	if !strings.Contains(out, "detection") || !strings.Contains(out, "reproduction") {
		t.Fatalf("Fig10 output malformed:\n%s", out)
	}
}

func TestViableCycleSkipsFalse(t *testing.T) {
	results := runSubset(t)
	for _, r := range results {
		for _, d := range r.Wolf.Defects {
			if d.Class != core.Confirmed {
				continue
			}
			cr := viableCycle(r.Wolf, d.Signature)
			if cr == nil {
				t.Errorf("%s: no viable cycle for confirmed defect %s", r.Workload.Name, d.Signature)
				continue
			}
			if cr.Class.IsFalse() || cr.Graph() == nil {
				t.Errorf("%s: viable cycle is unusable", r.Workload.Name)
			}
		}
	}
}

func TestHelpers(t *testing.T) {
	if got := bar(0.5, 10); got != "#####" {
		t.Errorf("bar(0.5,10) = %q", got)
	}
	if got := bar(-1, 10); got != "" {
		t.Errorf("bar(-1,10) = %q", got)
	}
	if got := bar(2, 10); got != "##########" {
		t.Errorf("bar(2,10) = %q", got)
	}
	if pct(1, 0) != 0 || pct(1, 2) != 50 {
		t.Error("pct wrong")
	}
	if ratio(time.Second, 0) != 0 || ratio(time.Second, time.Second) != 1 {
		t.Error("ratio wrong")
	}
}

// TestWriteCSV: the CSV has one row per benchmark plus a header, and
// the classification columns match the reports.
func TestWriteCSV(t *testing.T) {
	results := runSubset(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(results)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(results)+1)
	}
	if rows[0][0] != "benchmark" {
		t.Fatalf("header = %v", rows[0])
	}
	for i, r := range results {
		row := rows[i+1]
		if row[0] != r.Workload.Name {
			t.Errorf("row %d benchmark = %s", i, row[0])
		}
		if row[2] != strconv.Itoa(len(r.Wolf.Defects)) {
			t.Errorf("row %d defects = %s, want %d", i, row[2], len(r.Wolf.Defects))
		}
	}
}

// TestExtensionTable: the extension run renders and the Jigsaw unknowns
// collapse (when included); on benchmarks without data flags the two
// configurations agree.
func TestExtensionTable(t *testing.T) {
	cfg := Config{Workloads: []string{"HashMap"}, ReplayAttempts: 5}
	campaign, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := RunExtension(campaign, cfg)
	out := TableExt(results)
	if !strings.Contains(out, "HashMap") || !strings.Contains(out, "Unknown defects") {
		t.Fatalf("malformed table:\n%s", out)
	}
	_, _, bConf, bUnk := results[0].Base.CountDefects()
	_, _, eConf, eUnk := results[0].Ext.CountDefects()
	if bConf != eConf || bUnk != eUnk {
		t.Fatalf("extension changed HashMap verdicts: %d/%d vs %d/%d", bConf, bUnk, eConf, eUnk)
	}
}
