package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/obs"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// fig4TraceFrom records a Figure 4 detection trace on the first
// terminating seed at or after from, so tests can get two distinct
// executions of the same defect.
func fig4TraceFrom(t *testing.T, from int64) (*trace.Trace, int64) {
	t.Helper()
	w, ok := workloads.ByName("Figure4")
	if !ok {
		t.Fatal("Figure4 not registered")
	}
	for seed := from; seed < from+300; seed++ {
		prog, opts := w.New()
		if out := sim.Run(prog, sim.NewRandomStrategy(seed), opts); out.Kind != sim.Terminated {
			continue
		}
		return core.Record(w.New, seed, 0), seed
	}
	t.Fatalf("no terminating Figure4 seed at or after %d", from)
	return nil, 0
}

func binBody(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// uploadAndFinish posts a trace and waits for its job to complete.
func uploadAndFinish(t *testing.T, base string, body []byte) JobView {
	t.Helper()
	code, accepted := postTrace(t, base+"/v1/traces", body, nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	return pollJob(t, base, accepted["id"].(string))
}

// TestCorpusAggregatesAcrossExecutions is the tentpole's e2e criterion:
// two distinct recorded executions of the same workload deadlock fold
// into ONE defect record whose occurrence count is 2.
func TestCorpusAggregatesAcrossExecutions(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, ts := startServer(t, Config{Workers: 2, QueueSize: 8, Store: st})

	tr1, seed1 := fig4TraceFrom(t, 1)
	tr2, _ := fig4TraceFrom(t, seed1+1)
	v1 := uploadAndFinish(t, ts.URL, binBody(t, tr1))
	v2 := uploadAndFinish(t, ts.URL, binBody(t, tr2))
	if v1.State != string(StateDone) || v2.State != string(StateDone) {
		t.Fatalf("jobs = %s / %s", v1.State, v2.State)
	}
	if v1.TraceHash == "" || v2.TraceHash == "" || v1.TraceHash == v2.TraceHash {
		t.Fatalf("trace hashes %q / %q: want distinct, non-empty", v1.TraceHash, v2.TraceHash)
	}

	var defects struct {
		Defects []store.DefectRecord `json:"defects"`
	}
	if code := getJSON(t, ts.URL+"/v1/defects", &defects); code != http.StatusOK {
		t.Fatalf("defects = %d", code)
	}
	if len(defects.Defects) != 1 {
		t.Fatalf("defect records = %d, want 1 (same deadlock, two executions)", len(defects.Defects))
	}
	d := defects.Defects[0]
	if d.Occurrences != 2 {
		t.Errorf("occurrences = %d, want 2", d.Occurrences)
	}
	if len(d.Traces) != 2 {
		t.Errorf("confirming traces = %d, want 2", len(d.Traces))
	}
	if len(d.Fingerprint) != 64 {
		t.Errorf("fingerprint %q not sha256 hex", d.Fingerprint)
	}

	// Single-defect fetch works by full fingerprint and by short prefix.
	var one store.DefectRecord
	if code := getJSON(t, ts.URL+"/v1/defects/"+d.Fingerprint, &one); code != http.StatusOK || one.Fingerprint != d.Fingerprint {
		t.Errorf("defect by fingerprint = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/defects/"+d.Fingerprint[:12], &one); code != http.StatusOK || one.Fingerprint != d.Fingerprint {
		t.Errorf("defect by short fingerprint = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/defects/"+strings.Repeat("0", 64), nil); code != http.StatusNotFound {
		t.Errorf("unknown defect = %d, want 404", code)
	}
}

// TestCorpusSurvivesRestart kills the server (plus store) and brings up
// a fresh instance over the same data dir: traces, defect records and
// job history must all come back, and the rehydrated job endpoints must
// degrade the way the API promises.
func TestCorpusSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := New(Config{Workers: 2, QueueSize: 8, Store: st})
	ts1 := httptest.NewServer(s1.Handler())

	tr, _ := fig4TraceFrom(t, 1)
	done := uploadAndFinish(t, ts1.URL, binBody(t, tr))
	if done.State != string(StateDone) {
		t.Fatalf("job = %+v", done)
	}
	var rep1 map[string]any
	if code := getJSON(t, ts1.URL+"/v1/jobs/"+done.ID+"/report", &rep1); code != http.StatusOK {
		t.Fatalf("report before restart = %d", code)
	}

	// Kill: shut the server down and close the store cleanly.
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.Shutdown(ctx)
	cancel()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory.
	st2 := openStore(t, dir)
	defer st2.Close()
	_, ts2 := startServer(t, Config{Workers: 2, QueueSize: 8, Store: st2})

	// The job came back, terminal, with its trace hash.
	v := JobView{}
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+done.ID, &v); code != http.StatusOK {
		t.Fatalf("job after restart = %d", code)
	}
	if v.State != string(StateDone) || v.TraceHash != done.TraceHash {
		t.Fatalf("rehydrated job = %+v, want done with hash %s", v, done.TraceHash)
	}

	// The report survives verbatim from the journal.
	var rep2 map[string]any
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+done.ID+"/report", &rep2); code != http.StatusOK {
		t.Fatalf("report after restart = %d", code)
	}
	if rep1["tool"] != rep2["tool"] {
		t.Errorf("report tool changed across restart: %v vs %v", rep1["tool"], rep2["tool"])
	}

	// The graph is regenerated from the corpus blob.
	if code, body := getBody(t, ts2.URL+"/v1/jobs/"+done.ID+"/dot"); code != http.StatusOK || !strings.Contains(string(body), "digraph Gs") {
		t.Errorf("dot after restart = %d, want 200 with a Gs: %.80s", code, body)
	}

	// The timeline is rebuilt from the corpus blob.
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+done.ID+"/timeline", nil); code != http.StatusOK {
		t.Errorf("timeline after restart = %d, want 200", code)
	}

	// The trace blob itself is still addressable and the defect survived.
	resp, err := http.Get(ts2.URL + "/v1/traces/" + done.TraceHash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trace blob after restart = %d", resp.StatusCode)
	}
	var defects struct {
		Defects []store.DefectRecord `json:"defects"`
	}
	if code := getJSON(t, ts2.URL+"/v1/defects", &defects); code != http.StatusOK || len(defects.Defects) != 1 {
		t.Fatalf("defects after restart: code=%d n=%d, want 1", code, len(defects.Defects))
	}

	// Replaying the stored trace regenerates analysis (and the graphs a
	// fresh job carries), counting another occurrence of the defect.
	code, accepted := postTrace(t, ts2.URL+"/v1/traces/"+done.TraceHash+"/replay", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("replay = %d", code)
	}
	rv := pollJob(t, ts2.URL, accepted["id"].(string))
	if rv.State != string(StateDone) || rv.TraceHash != done.TraceHash {
		t.Fatalf("replay job = %+v", rv)
	}
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+rv.ID+"/dot", nil); code != http.StatusOK {
		t.Errorf("dot on replay job = %d, want 200", code)
	}
	if code := getJSON(t, ts2.URL+"/v1/defects", &defects); code != http.StatusOK || len(defects.Defects) != 1 {
		t.Fatalf("defects after replay: code=%d n=%d", code, len(defects.Defects))
	}
	if got := defects.Defects[0].Occurrences; got != 2 {
		t.Errorf("occurrences after replay = %d, want 2", got)
	}
}

// TestLostJobFailedOnRestart: a job persisted as queued (the process
// died before a worker picked it up) must come back failed, not hang.
func TestLostJobFailedOnRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.AppendJob(store.JobRecord{
		ID:      "j-000007",
		State:   "running",
		Source:  "upload",
		Created: time.Now().UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Store: st2})
	var v JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/j-000007", &v); code != http.StatusOK {
		t.Fatalf("lost job = %d", code)
	}
	if v.State != string(StateFailed) || !strings.Contains(v.Error, "lost") {
		t.Errorf("lost job = %+v, want failed with a lost-in-restart error", v)
	}
	// The correction was journaled: the ID sequence continues past it
	// and new jobs do not collide.
	tr, _ := fig4TraceFrom(t, 1)
	nv := uploadAndFinish(t, ts.URL, binBody(t, tr))
	if nv.ID <= "j-000007" {
		t.Errorf("new job ID %s did not continue past restored sequence", nv.ID)
	}
}

// TestTraceDeleteEndpoint: DELETE removes the blob; the defect record
// keeps its dangling reference.
func TestTraceDeleteEndpoint(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Store: st})
	tr, _ := fig4TraceFrom(t, 1)
	v := uploadAndFinish(t, ts.URL, binBody(t, tr))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/traces/"+v.TraceHash, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/traces/"+v.TraceHash, nil); code != http.StatusNotFound {
		t.Errorf("get after delete = %d", code)
	}
	var defects struct {
		Defects []store.DefectRecord `json:"defects"`
	}
	if code := getJSON(t, ts.URL+"/v1/defects", &defects); code != http.StatusOK || len(defects.Defects) != 1 {
		t.Fatalf("defect record must survive trace deletion")
	}
}

// TestJobsFilter: GET /v1/jobs?state=&limit= narrows the listing; bad
// values are 400s, not silent full listings.
func TestJobsFilter(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 8, Store: st})
	tr, _ := fig4TraceFrom(t, 1)
	body := binBody(t, tr)
	var last JobView
	for i := 0; i < 3; i++ {
		last = uploadAndFinish(t, ts.URL, body)
	}

	var out struct {
		Jobs []JobView `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?state=done", &out); code != http.StatusOK || len(out.Jobs) != 3 {
		t.Fatalf("state=done: code=%d n=%d, want 3", code, len(out.Jobs))
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?state=failed", &out); code != http.StatusOK || len(out.Jobs) != 0 {
		t.Errorf("state=failed: code=%d n=%d, want 0", code, len(out.Jobs))
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?state=done&limit=1", &out); code != http.StatusOK || len(out.Jobs) != 1 {
		t.Fatalf("limit=1: code=%d n=%d", code, len(out.Jobs))
	}
	if out.Jobs[0].ID != last.ID {
		t.Errorf("limit keeps %s, want most recent %s", out.Jobs[0].ID, last.ID)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?state=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("state=bogus = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?limit=x", nil); code != http.StatusBadRequest {
		t.Errorf("limit=x = %d, want 400", code)
	}
}

// TestCorpusEndpointsWithoutStore: without -data-dir the corpus API is
// a clear 503, not a panic or a silent empty list.
func TestCorpusEndpointsWithoutStore(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	for _, url := range []string{
		ts.URL + "/v1/traces",
		ts.URL + "/v1/traces/" + strings.Repeat("a", 64),
		ts.URL + "/v1/defects",
		ts.URL + "/v1/defects/" + strings.Repeat("a", 64),
	} {
		if code := getJSON(t, url, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s = %d, want 503", url, code)
		}
	}
}

// TestMetricsIncludeStore: /metrics gains the wolfd_store_* family when
// a corpus is attached, and the combined exposition stays lint-clean.
func TestMetricsIncludeStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Store: st})
	tr, _ := fig4TraceFrom(t, 1)
	uploadAndFinish(t, ts.URL, binBody(t, tr))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{"wolfd_store_traces 1", "wolfd_store_defects 1", "wolfd_store_jobs"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if errs := obs.PromLint(strings.NewReader(text)); len(errs) != 0 {
		t.Errorf("promlint with store metrics: %v", errs)
	}
}
