package server

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// registryTrace records w's detection trace on its first terminating
// seed, or on seed 1 when it has none (GlobalLockCrash wedges on every
// seed).
func registryTrace(t testing.TB, w workloads.Workload) *trace.Trace {
	t.Helper()
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		seed = 1
	}
	return core.Record(w.New, seed, 0)
}

// registryBodies is the WTRC upload body of every registry workload's
// trace, in registry order.
func registryBodies(t *testing.T) (names []string, bodies [][]byte) {
	t.Helper()
	for _, w := range workloads.Registry() {
		names = append(names, w.Name)
		bodies = append(bodies, binBody(t, registryTrace(t, w)))
	}
	return names, bodies
}

// TestDotGolden: GET /v1/jobs/{id}/dot without a signature renders the
// first defect with a graph of an uploaded registry trace, byte for
// byte as testdata/dot/<workload>.dot holds it: the output of the
// server when finished jobs still kept their graphs. A workload without
// such a defect has no file and answers 404.
func TestDotGolden(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, QueueSize: 64})
	names, bodies := registryBodies(t)
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			v := uploadAndFinish(t, ts.URL, bodies[i])
			if v.State != string(StateDone) {
				t.Fatalf("job = %+v", v)
			}
			code, body := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/dot")
			want, err := os.ReadFile(filepath.Join("testdata", "dot", name+".dot"))
			switch {
			case os.IsNotExist(err):
				if code != http.StatusNotFound {
					t.Fatalf("dot = %d, want 404 (no golden graph): %.200s", code, body)
				}
			case err != nil:
				t.Fatal(err)
			case code != http.StatusOK || string(body) != string(want):
				t.Fatalf("dot = %d:\n%s\nwant 200:\n%s", code, body, want)
			}
		})
	}
}

// parentHeapPerJob is the live heap per finished job this test measured
// when a finished job still held its *core.Report, with every cycle's
// Gs, and its *trace.Trace (go1.24, linux/amd64): 200 uploads cycling
// through the registry traces.
var parentHeapPerJob = map[string]float64{"memory": 118100, "corpus": 118500}

// TestFinishedJobsHoldNoGraphs: a finished job keeps its journal record
// and byte sections, not the analysis report's graphs or the decoded
// trace, so the live heap per finished job is at most a quarter of what
// it was while jobs held both; with a corpus and without one. The first
// job still serves its report, timeline and dot after 200 more.
func TestFinishedJobsHoldNoGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("uploads 200 registry traces")
	}
	names, bodies := registryBodies(t)
	fig4 := binBody(t, fig4Trace(t))
	for _, mode := range []string{"memory", "corpus"} {
		t.Run(mode, func(t *testing.T) {
			// A 16-entry flight recorder: the ring is bounded whatever
			// its size, and a small one keeps its events out of the
			// per-job figure.
			cfg := Config{Workers: 2, QueueSize: 64, FlightRecorderSize: 16}
			if mode == "corpus" {
				st := openStore(t, t.TempDir())
				t.Cleanup(func() { st.Close() })
				cfg.Store = st
			}
			_, ts := startServer(t, cfg)
			// The first job, a Figure 4 upload, is read back at the end;
			// one pass over the registry warms every pool and cache.
			first := uploadAndFinish(t, ts.URL, fig4)
			for _, body := range bodies {
				uploadAndFinish(t, ts.URL, body)
			}
			const jobs = 200
			before := liveHeap()
			for i := 0; i < jobs; i++ {
				if v := uploadAndFinish(t, ts.URL, bodies[i%len(bodies)]); v.State != string(StateDone) {
					t.Fatalf("job %s (%s) = %s: %s", v.ID, names[i%len(names)], v.State, v.Error)
				}
			}
			perJob := float64(int64(liveHeap())-int64(before)) / jobs
			t.Logf("live heap per finished job (%s): %.0f bytes; before: %.0f", mode, perJob, parentHeapPerJob[mode])
			if limit := parentHeapPerJob[mode] / 4; perJob > limit {
				t.Errorf("live heap per finished job = %.0f bytes, want at most %.0f (a quarter of %.0f)",
					perJob, limit, parentHeapPerJob[mode])
			}
			for _, ep := range []string{"report", "timeline", "dot"} {
				if code, body := getBody(t, ts.URL+"/v1/jobs/"+first.ID+"/"+ep); code != http.StatusOK {
					t.Errorf("%s of the first job = %d: %.200s", ep, code, body)
				} else if ep == "dot" && !strings.Contains(string(body), "digraph Gs") {
					t.Errorf("dot of the first job is not a Gs: %.200s", body)
				}
			}
		})
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDotGoneWithTrace: dot regenerates graphs from the job's trace, so
// once the corpus blob is deleted a done job's dot answers 410; its
// report still reads back from the journal.
func TestDotGoneWithTrace(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Store: st})
	v := uploadAndFinish(t, ts.URL, binBody(t, fig4Trace(t)))
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/dot"); code != http.StatusOK {
		t.Fatalf("dot before the delete = %d: %s", code, body)
	}
	if err := st.DeleteTrace(v.TraceHash); err != nil {
		t.Fatal(err)
	}
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/dot"); code != http.StatusGone {
		t.Errorf("dot after the delete = %d, want 410: %s", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/report"); code != http.StatusOK {
		t.Errorf("report after the delete = %d, want 200", code)
	}
}

// TestDotRunsNoAnalysis: dot draws a done job's Gs from detection
// alone, so several dot requests, with and without a signature, leave
// the Analyze hook at the one call the job's own analysis made.
func TestDotRunsNoAnalysis(t *testing.T) {
	var calls atomic.Int64
	count := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		calls.Add(1)
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: count})
	v := uploadAndFinish(t, ts.URL, binBody(t, fig4Trace(t)))
	if v.State != string(StateDone) {
		t.Fatalf("job = %+v", v)
	}
	for _, q := range []string{"", "?signature=19%2B33", "", "?signature=19%2B33"} {
		if code, body := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/dot"+q); code != http.StatusOK || !strings.Contains(string(body), "digraph Gs") {
			t.Fatalf("dot%s = %d, want 200 with a Gs: %.200s", q, code, body)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("Analyze hook called %d times, want 1 (the job's own analysis)", n)
	}
}

// TestDotJobStates: dot answers 409 with Retry-After while a job runs,
// and 422 with the job's error once it failed, as report does: a failed
// job never gets a graph, so a client must not retry.
func TestDotJobStates(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	hook := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		running <- struct{}{}
		<-release
		return nil, errors.New("synthetic analysis failure")
	}
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: hook})
	code, accepted := postTrace(t, ts.URL+"/v1/traces", binBody(t, fig4Trace(t)), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	id := accepted["id"].(string)
	<-running
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/dot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") == "" {
		t.Errorf("dot of a running job = %d (Retry-After %q), want 409 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	close(release)
	if v := pollJob(t, ts.URL, id); v.State != string(StateFailed) {
		t.Fatalf("job = %+v, want failed", v)
	}
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/dot"); code != http.StatusUnprocessableEntity ||
		!strings.Contains(string(body), "synthetic analysis failure") {
		t.Errorf("dot of a failed job = %d: %s, want 422 with the job's error", code, body)
	}
}

// TestDotTimeout: dot runs under JobTimeout and answers 504 when it
// expires. The job's own analysis ignores its context here, so the job
// finishes although the timeout is a nanosecond.
func TestDotTimeout(t *testing.T) {
	deaf := func(_ context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		return core.AnalyzeTrace(tr, cfg), nil
	}
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, JobTimeout: time.Nanosecond, Analyze: deaf})
	v := uploadAndFinish(t, ts.URL, binBody(t, fig4Trace(t)))
	if v.State != string(StateDone) {
		t.Fatalf("job = %+v", v)
	}
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/dot"); code != http.StatusGatewayTimeout {
		t.Errorf("dot = %d, want 504: %s", code, body)
	}
}

// TestTimelineGoneWithTrace: the timeline of a finished job whose
// corpus blob was deleted answers 410, as dot does, without a
// Retry-After; 409 with Retry-After is kept for a queued job whose
// trace is not recorded yet.
func TestTimelineGoneWithTrace(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Store: st})
	v := uploadAndFinish(t, ts.URL, binBody(t, fig4Trace(t)))
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/timeline"); code != http.StatusOK {
		t.Fatalf("timeline before the delete = %d: %s", code, body)
	}
	if err := st.DeleteTrace(v.TraceHash); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || resp.Header.Get("Retry-After") != "" {
		t.Errorf("timeline after the delete = %d (Retry-After %q), want 410 without one",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// A coordinator without analyzers leaves a workload job queued, its
	// trace not recorded yet.
	_, coord := startServer(t, Config{Role: RoleCoordinator, QueueSize: 4})
	code, accepted := postTrace(t, coord.URL+"/v1/workloads/Figure4", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("workload job = %d", code)
	}
	resp, err = http.Get(coord.URL + "/v1/jobs/" + accepted["id"].(string) + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("timeline of a queued workload job = %d (Retry-After %q), want 409 with 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestFailedAppendKeepsReport: the corpus is best-effort, so a done job
// whose terminal journal append failed keeps its wire report in memory
// and serves it.
func TestFailedAppendKeepsReport(t *testing.T) {
	st := openStore(t, t.TempDir())
	if err := st.Close(); err != nil { // every journal append now fails
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Store: st})
	v := uploadAndFinish(t, ts.URL, binBody(t, fig4Trace(t)))
	if v.State != string(StateDone) {
		t.Fatalf("job = %+v", v)
	}
	if _, err := st.JobReport(v.ID); err == nil {
		t.Fatal("the closed store journaled the report")
	}
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/report"); code != http.StatusOK || !strings.Contains(string(body), `"defects"`) {
		t.Errorf("report = %d: %.200s", code, body)
	}
}

// TestRestoredIDSequence: rehydrated jobs advance the ID sequence past
// the largest j-N among them; an ID of another form leaves it as it is.
func TestRestoredIDSequence(t *testing.T) {
	js := newJobStore(false)
	for _, id := range []string{"j-000005", "j-12abc", "x-000099", "j-", "j--7", "j-000003", "j-+000009", "J-000011"} {
		js.restore(store.JobRecord{ID: id, State: string(StateDone)})
	}
	if j := js.add("upload", "", nil); j.ID != "j-000006" {
		t.Errorf("next job = %s, want j-000006", j.ID)
	}
}
