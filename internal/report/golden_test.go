package report

import (
	"bytes"
	"encoding/csv"
	"os"
	"slices"
	"strings"
	"testing"

	"wolf/internal/workloads"
)

// goldenPath holds the non-timing cells of the paper campaign: every
// WriteCSV column except slowdown and the *_ns timings. Refactors that
// must not change a verdict leave it unchanged. It was generated with
//
//	go run ./cmd/paper -table1 -table2 -fig8 -runs 100 -csv c.csv
//	cut -d, -f1-13,15,16,23,24 c.csv > internal/report/testdata/paper_cells.csv
const goldenPath = "testdata/paper_cells.csv"

// cellRows renders results through WriteCSV and drops the timing
// columns.
func cellRows(t *testing.T, results []*Result) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var keep []int
	for i, col := range rows[0] {
		if col != "slowdown" && !strings.HasSuffix(col, "_ns") {
			keep = append(keep, i)
		}
	}
	out := make([][]string, len(rows))
	for r, row := range rows {
		for _, i := range keep {
			out[r] = append(out[r], row[i])
		}
	}
	return out
}

// TestPaperCellsGolden regenerates the paper's non-timing cells and
// compares them with the committed golden: the ten rows other than
// Jigsaw with Figure 8 at 100 runs, then Jigsaw's Table 1 and Table 2
// cells. Jigsaw's Figure 8 cells cost half a minute and are not rerun;
// its row takes several seconds and is skipped under -short.
func TestPaperCellsGolden(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, row := range golden[1:] {
		want[row[0]] = row
	}
	cfg := Config{HitRateRuns: 100}
	for _, w := range workloads.All() {
		if want[w.Name] == nil {
			t.Fatalf("%s has no golden row", w.Name)
		}
		if w.Name != "Jigsaw" {
			cfg.Workloads = append(cfg.Workloads, w.Name)
		}
	}
	results, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	MeasureHitRates(results, cfg)
	check := func(rows [][]string, skip ...string) {
		t.Helper()
		if !slices.Equal(rows[0], golden[0]) {
			t.Fatalf("columns = %v, golden %v", rows[0], golden[0])
		}
		for _, row := range rows[1:] {
			for i, col := range rows[0] {
				if !slices.Contains(skip, col) && row[i] != want[row[0]][i] {
					t.Errorf("%s %s = %s, golden %s", row[0], col, row[i], want[row[0]][i])
				}
			}
		}
	}
	check(cellRows(t, results))
	if testing.Short() {
		return
	}
	jigsaw, err := Run(Config{Workloads: []string{"Jigsaw"}})
	if err != nil {
		t.Fatal(err)
	}
	check(cellRows(t, jigsaw), "hit_wolf", "hit_df")
}
