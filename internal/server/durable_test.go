package server

// One durable write per verdict: a finished job's defects reach the
// corpus through its terminal journal record alone.

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wolf/internal/core"
	"wolf/internal/store"
	"wolf/internal/workloads"
)

// storeFsyncs reads wolfd_store_fsyncs_total from /metrics.
func storeFsyncs(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wolfd_store_fsyncs_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no wolfd_store_fsyncs_total in /metrics")
	return 0
}

// TestUploadFsyncBudget pins the fsyncs of one corpus-backed upload:
// the admission record, the dirty marker that opens a snapshot window,
// the trace blob (its file and its directory) and the terminal record,
// which carries the defect delta. However many fingerprints the report
// touches, that is five; before the journal carried deltas each touched
// defect added a file and a directory fsync.
func TestUploadFsyncBudget(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Store: st})
	for _, tc := range []struct {
		workload string
		min      int // fingerprints the report touches, at least
	}{{"Figure4", 1}, {"HashMap", 2}, {"Jigsaw", 10}} {
		w, ok := workloads.ByName(tc.workload)
		if !ok {
			t.Fatalf("%s not registered", tc.workload)
		}
		tr := core.Record(w.New, 1, 0)
		// A snapshot closes the window, so this upload drops the marker.
		if err := st.SaveIndex(); err != nil {
			t.Fatal(err)
		}
		before := storeFsyncs(t, ts.URL)
		v := uploadAndFinish(t, ts.URL, binBody(t, tr))
		if v.State != string(StateDone) {
			t.Fatalf("%s: job = %+v", tc.workload, v)
		}
		got := storeFsyncs(t, ts.URL) - before
		touched := 0
		for _, rec := range st.Defects() {
			for _, h := range rec.Traces {
				if h == v.TraceHash {
					touched++
				}
			}
		}
		if touched < tc.min {
			t.Fatalf("%s: report touched %d fingerprints, want at least %d", tc.workload, touched, tc.min)
		}
		if got != 5 {
			t.Errorf("%s (%d fingerprints): upload cost %d fsyncs, want 5 (admission, marker, blob file and directory, terminal)",
				tc.workload, touched, got)
		}
	}
}

// TestCompleteWithBadFingerprintRecordsNothing: a remote completion
// whose summaries hold one good and one malformed fingerprint changes no
// defect — the fold is all or nothing — and the job still finishes.
func TestCompleteWithBadFingerprintRecordsNothing(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, ts := startServer(t, Config{Role: RoleCoordinator, QueueSize: 4, Store: st})
	id := uploadFig4(t, ts.URL)
	node := registerNode(t, ts.URL, "alpha")
	w := pullWork(t, ts.URL, node)
	req := okComplete(node, w.Job)
	req.Summaries = []store.CycleSummary{
		{Fingerprint: strings.Repeat("ab", 32), Signature: "a.go:1+a.go:2"},
		{Fingerprint: "../../defects/x", Signature: "b.go:1+b.go:2"},
	}
	var view struct{ Result string }
	if code := fleetPost(t, ts.URL+"/v1/work/complete", req, &view); code != http.StatusOK || view.Result != "accepted" {
		t.Fatalf("complete = %d %q", code, view.Result)
	}
	if v := pollJob(t, ts.URL, id); v.State != string(StateDone) {
		t.Fatalf("job = %+v, want done", v)
	}
	if recs := st.Defects(); len(recs) != 0 {
		t.Errorf("a completion with a malformed fingerprint changed %d defects", len(recs))
	}
}

// TestUncleanExitKeepsDefects: once a job reads done its defects are
// durable. The store is abandoned without Close — no snapshot, no
// defect file — and a fresh Open over the directory has the defect.
func TestUncleanExitKeepsDefects(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir) // never closed: the process dies
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Store: st})
	tr, _ := fig4TraceFrom(t, 1)
	if v := uploadAndFinish(t, ts.URL, binBody(t, tr)); v.State != string(StateDone) {
		t.Fatalf("job = %+v", v)
	}
	want, err := json.Marshal(st.Defects())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.Defects()); n != 1 {
		t.Fatalf("defects = %d, want 1", n)
	}
	filepath.WalkDir(filepath.Join(dir, "defects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("defect file written on the job path: %s", path)
		}
		return nil
	})

	st2 := openStore(t, dir)
	defer st2.Close()
	got, err := json.Marshal(st2.Defects())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("defects after an unclean exit:\n got %s\nwant %s", got, want)
	}
}
