package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/fleet"
	"wolf/internal/obs"
	"wolf/internal/replay"
	"wolf/internal/report"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// fig4Trace records a Figure 4 detection trace on a terminating seed.
func fig4Trace(t *testing.T) *trace.Trace {
	t.Helper()
	w, ok := workloads.ByName("Figure4")
	if !ok {
		t.Fatal("Figure4 not registered")
	}
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		t.Fatal("no terminating seed")
	}
	return core.Record(w.New, seed, 0)
}

// startServer runs a wolfd instance behind a real loopback HTTP server.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// forEachRole runs body once per scheduling transport: the single
// role's in-process analyzers, and a coordinator with one remote
// fleet.Analyzer (see startRole). The contract is the same for both.
func forEachRole(t *testing.T, body func(t *testing.T, role string)) {
	for _, tc := range []struct{ name, role string }{{"single", RoleSingle}, {"coordinator", RoleCoordinator}} {
		t.Run(tc.name, func(t *testing.T) { body(t, tc.role) })
	}
}

// startRole starts wolfd in role. A coordinator gets one remote
// fleet.Analyzer over loopback HTTP, carrying the config's timeout,
// watchdog grace and analysis hook — what an in-process analyzer of
// the single role gets from the same Config.
func startRole(t *testing.T, role string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Role = role
	s, ts := startServer(t, cfg)
	if role != RoleCoordinator {
		return s, ts
	}
	a := fleet.NewAnalyzer(fleet.AnalyzerConfig{
		Coordinator: ts.URL, Name: "remote", Poll: 10 * time.Millisecond,
		JobTimeout: cfg.JobTimeout, WatchdogGrace: cfg.WatchdogGrace, Analyze: cfg.Analyze,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return s, ts
}

// postTrace uploads a trace body and decodes the response JSON.
func postTrace(t *testing.T, url string, body []byte, hdr map[string]string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// postTraceResp uploads a trace body and returns the raw response for
// header assertions; the caller closes the body.
func postTraceResp(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getJSON fetches url into out, returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollJob waits for the job to leave the queued/running states.
func pollJob(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		if code := getJSON(t, base+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("job status = %d", code)
		}
		if v.State == string(StateDone) || v.State == string(StateFailed) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobView{}
}

// TestEndToEndFigure4 is the service's core contract: record a workload
// trace, upload it over real HTTP in both encodings (binary gzipped),
// poll the job, and check the report classifies the known cycles — θ1
// refuted by the Pruner, θ2 (the real Figure 4 deadlock) surviving
// pruning and generation.
func TestEndToEndFigure4(t *testing.T) {
	tr := fig4Trace(t)
	_, ts := startServer(t, Config{Workers: 2, QueueSize: 8})

	var js bytes.Buffer
	if err := tr.Write(&js); err != nil {
		t.Fatal(err)
	}
	var binGz bytes.Buffer
	zw := gzip.NewWriter(&binGz)
	if err := tr.WriteBinary(zw); err != nil {
		t.Fatal(err)
	}
	zw.Close()

	uploads := []struct {
		name string
		body []byte
		hdr  map[string]string
	}{
		{"json", js.Bytes(), nil},
		{"binary+gzip", binGz.Bytes(), map[string]string{"Content-Encoding": "gzip"}},
	}
	for _, up := range uploads {
		t.Run(up.name, func(t *testing.T) {
			code, accepted := postTrace(t, ts.URL+"/v1/traces", up.body, up.hdr)
			if code != http.StatusAccepted {
				t.Fatalf("upload = %d (%v)", code, accepted)
			}
			id, _ := accepted["id"].(string)
			if id == "" {
				t.Fatalf("no job id in %v", accepted)
			}
			v := pollJob(t, ts.URL, id)
			if v.State != string(StateDone) {
				t.Fatalf("job = %+v", v)
			}
			if v.Tuples != len(tr.Tuples) {
				t.Fatalf("tuples = %d, want %d", v.Tuples, len(tr.Tuples))
			}

			var rep report.JSONReport
			if code := getJSON(t, ts.URL+v.ReportURL, &rep); code != http.StatusOK {
				t.Fatalf("report = %d", code)
			}
			if len(rep.Defects) != 2 {
				t.Fatalf("defects = %+v, want 2", rep.Defects)
			}
			classes := map[string]string{}
			for _, d := range rep.Defects {
				classes[d.Class] = d.Signature
			}
			if _, ok := classes["false(pruner)"]; !ok {
				t.Fatalf("θ1 not pruned: %+v", rep.Defects)
			}
			sig, ok := classes["unknown"]
			if !ok {
				t.Fatalf("θ2 did not survive pruning/generation: %+v", rep.Defects)
			}

			// The surviving defect's dependency graph is retrievable as dot.
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/dot?" +
				url.Values{"signature": {sig}}.Encode())
			if err != nil {
				t.Fatal(err)
			}
			dot, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(dot), "digraph Gs") {
				t.Fatalf("dot = %d: %.80s", resp.StatusCode, dot)
			}
		})
	}

	// The synchronous endpoint returns the same verdicts inline.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(js.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sync report.JSONReport
	if err := json.NewDecoder(resp.Body).Decode(&sync); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(sync.Defects) != 2 {
		t.Fatalf("sync analyze = %d, %+v", resp.StatusCode, sync.Defects)
	}
}

// TestWorkloadJob: the server records and analyzes a registered workload
// on its own, sharing cmd/wolf's registry.
func TestWorkloadJob(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})

	var names struct {
		Workloads []string `json:"workloads"`
	}
	if code := getJSON(t, ts.URL+"/v1/workloads", &names); code != http.StatusOK {
		t.Fatalf("workloads = %d", code)
	}
	found := false
	for _, n := range names.Workloads {
		if n == "Figure4" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Figure4 missing from %v", names.Workloads)
	}

	code, accepted := postTrace(t, ts.URL+"/v1/workloads/Figure4", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("workload job = %d (%v)", code, accepted)
	}
	v := pollJob(t, ts.URL, accepted["id"].(string))
	if v.State != string(StateDone) || v.Tuples == 0 {
		t.Fatalf("workload job = %+v", v)
	}

	if code, _ := postTrace(t, ts.URL+"/v1/workloads/NoSuchThing", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown workload = %d", code)
	}
}

// TestUploadRejectsGarbage: malformed bodies are a client error, and the
// queue never sees them.
func TestUploadRejectsGarbage(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	for name, body := range map[string][]byte{
		"empty":     nil,
		"garbage":   []byte("not a trace"),
		"truncated": []byte("WTRC\x01"),
		"no-tuples": []byte(`{"version":1,"tuples":[]}`),
	} {
		if code, _ := postTrace(t, ts.URL+"/v1/traces", body, nil); code != http.StatusBadRequest {
			t.Fatalf("%s upload = %d, want 400", name, code)
		}
	}
	if got := s.Metrics().JobsAccepted.Load(); got != 0 {
		t.Fatalf("accepted = %d, want 0", got)
	}
}

// blockingAnalyze returns an analyze hook that parks until released,
// then runs the real pipeline.
func blockingAnalyze(release <-chan struct{}) func(context.Context, *trace.Trace, core.Config) (*core.Report, error) {
	return func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
}

// TestQueueFull: with workers parked and the queue at capacity, further
// uploads get 429 and the rejection is counted; draining the queue makes
// the server accept again.
func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		Workers:   1,
		QueueSize: 2,
		Analyze:   blockingAnalyze(release),
	})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	// 1 job parks on the worker; 2 fill the queue. Subsequent uploads
	// must bounce. The worker starts with the first admitted job, which
	// holds a queue slot until it is leased, so the two that fill the
	// queue wait for that lease.
	ids := []string{}
	for i := 0; i < 3; i++ {
		code, out := postTrace(t, ts.URL+"/v1/traces", body, nil)
		if code != http.StatusAccepted {
			t.Fatalf("upload %d = %d", i, code)
		}
		ids = append(ids, out["id"].(string))
		if i == 0 {
			deadline := time.Now().Add(5 * time.Second)
			for s.table.counts().leased == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Wait until the worker has dequeued the first job so exactly
	// QueueSize slots are occupied.
	deadline := time.Now().Add(5 * time.Second)
	for s.table.counts().depth != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp := postTraceResp(t, ts.URL+"/v1/traces", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity upload = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := s.Metrics().JobsRejected.Load(); got == 0 {
		t.Fatal("rejection not counted")
	}

	close(release)
	for _, id := range ids {
		if v := pollJob(t, ts.URL, id); v.State != string(StateDone) {
			t.Fatalf("job %s = %+v", id, v)
		}
	}
	// Queue drained: uploads flow again.
	if code, _ := postTrace(t, ts.URL+"/v1/traces", body, nil); code != http.StatusAccepted {
		t.Fatalf("post-drain upload = %d", code)
	}
}

// TestJobTimeout: an analysis exceeding the per-job timeout is reported
// failed, counted, and the analyzer survives to serve the next job.
func TestJobTimeout(t *testing.T) { forEachRole(t, testJobTimeout) }

func testJobTimeout(t *testing.T, role string) {
	const slowSeed = 999
	slow := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		if tr.Seed == slowSeed {
			<-ctx.Done() // simulate an analysis that outlives its budget
			return nil, ctx.Err()
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startRole(t, role, Config{
		Workers:    1,
		QueueSize:  4,
		JobTimeout: 50 * time.Millisecond,
		Analyze:    slow,
	})
	tr := fig4Trace(t)
	tr.Seed = slowSeed
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	v := pollJob(t, ts.URL, out["id"].(string))
	if v.State != string(StateFailed) || !strings.Contains(v.Error, "timed out") {
		t.Fatalf("job = %+v, want timeout failure", v)
	}
	if s.Metrics().JobsTimedOut.Load() != 1 {
		t.Fatal("timeout not counted")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/report", nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("report of failed job = %d, want 422", code)
	}

	// The worker must still be alive: the same trace under a normal seed
	// (fast path) succeeds on the same single worker.
	tr.Seed = 1
	buf.Reset()
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out = postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("second upload = %d", code)
	}
	if v := pollJob(t, ts.URL, out["id"].(string)); v.State != string(StateDone) {
		t.Fatalf("worker did not survive timeout: %+v", v)
	}
}

// TestPanicRecovery: a panicking analysis fails its job with the panic
// surfaced in the status, the analyzer survives, and the panic is
// counted.
func TestPanicRecovery(t *testing.T) { forEachRole(t, testPanicRecovery) }

func testPanicRecovery(t *testing.T, role string) {
	count := 0
	boom := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		count++
		if count == 1 {
			panic("synthetic analyzer bug")
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startRole(t, role, Config{Workers: 1, QueueSize: 4, Analyze: boom})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	v := pollJob(t, ts.URL, out["id"].(string))
	if v.State != string(StateFailed) || !strings.Contains(v.Error, "synthetic analyzer bug") {
		t.Fatalf("job = %+v, want surfaced panic", v)
	}
	if s.Metrics().JobsPanicked.Load() != 1 {
		t.Fatal("panic not counted")
	}

	// Same worker, next job: must succeed.
	code, out = postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("second upload = %d", code)
	}
	if v := pollJob(t, ts.URL, out["id"].(string)); v.State != string(StateDone) {
		t.Fatalf("worker did not survive panic: %+v", v)
	}
}

// TestGracefulShutdown: Shutdown completes the in-flight job, fails
// still-queued jobs fast with a distinct "drained" reason, flips
// healthz to draining, and refuses new uploads with 503.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueSize: 8, Analyze: blockingAnalyze(release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for i := 0; i < 3; i++ {
		code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
		if code != http.StatusAccepted {
			t.Fatalf("upload = %d", code)
		}
		ids = append(ids, out["id"].(string))
	}
	// Wait for the single worker to park on the first job so exactly one
	// job is in flight and two are queued when the drain starts.
	deadline := time.Now().Add(5 * time.Second)
	for s.table.counts().depth != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// While draining: health is 503 with the draining state visible.
	time.Sleep(20 * time.Millisecond) // let Shutdown close the queue
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("healthz during drain = %d %q, want 503 \"draining\"", code, health.Status)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The in-flight job completed; the queued-but-unstarted ones were
	// failed fast with the drain reason, not silently analyzed.
	j, _ := s.jobs.get(ids[0])
	if j.State() != StateDone {
		t.Fatalf("in-flight job = %v, want done", j.State())
	}
	for _, id := range ids[1:] {
		j, ok := s.jobs.get(id)
		if !ok || j.State() != StateFailed {
			t.Fatalf("queued job %s = %v, want failed", id, j.State())
		}
		if msg := j.view().Error; !strings.Contains(msg, "draining") {
			t.Fatalf("queued job %s error = %q, want drain reason", id, msg)
		}
	}
	if got := s.Metrics().JobsDrained.Load(); got != 2 {
		t.Fatalf("drained count = %d, want 2", got)
	}

	// New work is refused and health reports draining state.
	if code, _ := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown upload = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown = %d, want 503", code)
	}
}

// TestAnalysisParallelismGauge: the resolved Generator pool size is
// exported at startup — an explicit setting verbatim, zero resolved via
// EffectiveParallelism.
func TestAnalysisParallelismGauge(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4,
		Analysis: core.Config{Parallelism: 3}})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "wolfd_analysis_parallelism 3") {
		t.Fatalf("metrics missing explicit wolfd_analysis_parallelism:\n%s", body)
	}

	_, ts = startServer(t, Config{Workers: 1, QueueSize: 4})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	def := (&core.Config{}).EffectiveParallelism()
	if !strings.Contains(string(body), fmt.Sprintf("wolfd_analysis_parallelism %d", def)) {
		t.Fatalf("metrics missing default wolfd_analysis_parallelism %d:\n%s", def, body)
	}
}

// TestMetricsEndpoint: the Prometheus rendering carries the counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	pollJob(t, ts.URL, out["id"].(string))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"wolfd_jobs_accepted_total 1",
		"wolfd_jobs_completed_total 1",
		"wolfd_queue_depth 0",
		`wolfd_jobs_failed_total{reason="error"} 0`,
		`wolfd_jobs_failed_total{reason="timeout"} 0`,
		`wolfd_jobs_failed_total{reason="panic"} 0`,
		`wolfd_jobs_failed_total{reason="watchdog"} 0`,
		`wolfd_jobs_failed_total{reason="drained"} 0`,
		"wolfd_sync_rejected_total 0",
		"wolfd_phase_detect_seconds_count 1",
		"wolfd_phase_prune_seconds_count 1",
		"wolfd_phase_generate_seconds_count 1",
		"wolfd_analysis_seconds_count 1",
		"wolfd_queue_wait_seconds_count 1",
		"wolfd_cycles_total",
		`wolfd_defects_total{class="confirmed"}`,
		"wolfd_build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// The analysis completed, so the phase histograms must have counts
	// in real buckets, not just +Inf (the acceptance check for the
	// histogram rendering).
	if !regexp.MustCompile(`wolfd_analysis_seconds_bucket\{le="[0-9][^"]*"\} [1-9]`).MatchString(text) {
		t.Fatalf("no non-empty finite analysis histogram bucket:\n%s", text)
	}
	// Every line must satisfy the strict exposition-format linter.
	if errs := obs.PromLint(strings.NewReader(text)); len(errs) != 0 {
		t.Fatalf("metrics output fails lint: %v\n%s", errs, text)
	}

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
}

// TestVersionEndpoint: GET /version reports build information.
func TestVersionEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	var bi map[string]any
	if code := getJSON(t, ts.URL+"/version", &bi); code != http.StatusOK {
		t.Fatalf("version = %d", code)
	}
	if bi["go_version"] == "" || bi["version"] == "" {
		t.Fatalf("version body incomplete: %v", bi)
	}
}

// TestTimelineEndpoint: GET /v1/jobs/{id}/timeline serves the job's
// trace as valid Chrome trace-event JSON.
func TestTimelineEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	id := out["id"].(string)
	pollJob(t, ts.URL, id)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content-type = %q", ct)
	}
	if err := obs.ValidateTimeline(body); err != nil {
		t.Fatalf("served timeline invalid: %v\n%s", err, body)
	}
	if !bytes.Contains(body, []byte(`"ph":"i"`)) {
		t.Error("timeline has no acquisition instants")
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/nope/timeline", nil); code != http.StatusNotFound {
		t.Fatalf("missing job timeline = %d, want 404", code)
	}
}

// TestWorkloadJobTraceSurvivesFailure: a workload job's trace reaches
// the job as soon as the in-process analyzer records it, so the job
// reports tuples and serves its timeline while the analysis runs and
// after it times out.
func TestWorkloadJobTraceSurvivesFailure(t *testing.T) {
	analyzing := make(chan struct{})
	_, ts := startServer(t, Config{
		Workers: 1, QueueSize: 4, JobTimeout: 300 * time.Millisecond,
		Analyze: func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
			close(analyzing)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	code, accepted := postTrace(t, ts.URL+"/v1/workloads/Figure4", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("workload job = %d (%v)", code, accepted)
	}
	id := accepted["id"].(string)
	timeline := func(when string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timeline")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("timeline %s = %d: %s", when, resp.StatusCode, body)
		}
		if err := obs.ValidateTimeline(body); err != nil {
			t.Fatalf("timeline %s invalid: %v", when, err)
		}
	}

	<-analyzing
	var v JobView
	getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
	if v.State != string(StateRunning) || v.Tuples == 0 {
		t.Fatalf("running workload job = %+v, want running with tuples", v)
	}
	timeline("while running")

	v = pollJob(t, ts.URL, id)
	if v.State != string(StateFailed) || v.Tuples == 0 || !strings.Contains(v.Error, "timed out") {
		t.Fatalf("workload job = %+v, want a timeout failure with tuples", v)
	}
	timeline("after the timeout")
}

// TestUploadTooLarge: the size cap returns 413, not an open-ended read.
func TestUploadTooLarge(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, MaxUploadBytes: 128})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 128 {
		t.Fatalf("fixture too small: %d bytes", buf.Len())
	}
	bin := encodeBinary(t, tr)
	if len(bin) <= 128 {
		t.Fatalf("binary fixture too small: %d bytes", len(bin))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(bin)
	zw.Close()
	for _, up := range []struct {
		name string
		body []byte
		hdr  map[string]string
	}{
		{"json", buf.Bytes(), nil},
		{"wtrc", bin, nil},
		{"wtrc-gzip", gz.Bytes(), map[string]string{"Content-Encoding": "gzip"}},
	} {
		code, out := postTrace(t, ts.URL+"/v1/traces", up.body, up.hdr)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized %s upload = %d (%v), want 413", up.name, code, out)
		}
	}
}

// TestSyncAnalyzeClientCancel: POST /v1/analyze runs under the request
// context, so a client disconnect cancels the in-flight analysis.
func TestSyncAnalyzeClientCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	hook := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			cancelled <- struct{}{}
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("client disconnect never propagated")
		}
	}
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: hook})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(buf.Bytes()))
	go http.DefaultClient.Do(req)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("analysis never started")
	}
	cancel() // client walks away
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("analysis kept running after client disconnect")
	}
}

// TestWorkerWatchdog: an analysis that ignores its cancelled context is
// abandoned after JobTimeout+WatchdogGrace — the job fails with a
// watchdog reason, the failure is counted separately from timeouts, and
// the analyzer is freed for the next job.
func TestWorkerWatchdog(t *testing.T) { forEachRole(t, testWorkerWatchdog) }

func testWorkerWatchdog(t *testing.T, role string) {
	const stuckSeed = 999
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) }) // let the abandoned goroutine exit
	stuck := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		if tr.Seed == stuckSeed {
			<-hung // ignores ctx entirely: the watchdog's target
			return nil, fmt.Errorf("released")
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startRole(t, role, Config{
		Workers:       1,
		QueueSize:     4,
		JobTimeout:    50 * time.Millisecond,
		WatchdogGrace: 50 * time.Millisecond,
		Analyze:       stuck,
	})
	tr := fig4Trace(t)
	tr.Seed = stuckSeed
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	v := pollJob(t, ts.URL, out["id"].(string))
	if v.State != string(StateFailed) || !strings.Contains(v.Error, "watchdog") {
		t.Fatalf("job = %+v, want watchdog failure", v)
	}
	if s.Metrics().JobsWatchdogged.Load() != 1 {
		t.Fatal("watchdog abandonment not counted")
	}
	if s.Metrics().JobsTimedOut.Load() != 0 {
		t.Fatal("watchdog abandonment miscounted as timeout")
	}

	// The worker survived the abandonment: a well-behaved job on the same
	// single worker succeeds.
	tr.Seed = 1
	buf.Reset()
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out = postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("second upload = %d", code)
	}
	if v := pollJob(t, ts.URL, out["id"].(string)); v.State != string(StateDone) {
		t.Fatalf("worker did not survive watchdog: %+v", v)
	}
}

// corruptTrace decodes a fresh copy of base and applies the corruption.
func corruptTrace(t *testing.T, base []byte, corrupt func(tr *trace.Trace)) *trace.Trace {
	t.Helper()
	tr, err := trace.Decode(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	corrupt(tr)
	return tr
}

// streamUpload sends body through /v1/streams in 512-byte chunks and
// closes the stream, returning the first non-2xx answer (or the
// close's) — the stream door's verdict on the whole trace.
func streamUpload(t *testing.T, base string, body []byte) (int, map[string]any) {
	t.Helper()
	id := openStream(t, base)
	for off := 0; off < len(body); off += 512 {
		end := min(off+512, len(body))
		if code, out := postTrace(t, base+"/v1/streams/"+id+"/chunks", body[off:end], nil); code != http.StatusOK {
			return code, out
		}
	}
	return postTrace(t, base+"/v1/streams/"+id+"/close", nil, nil)
}

// TestUploadRejectsInvalidTrace: traces that parse but violate
// structural invariants are rejected with 422 before any analysis is
// queued, one counted corruption class each, and the classes surface on
// /metrics. Every case goes through every door — JSON and WTRC to
// /v1/traces, WTRC in chunks to /v1/streams — and every door gives the
// same status, the same class and the same count; a position that
// breaks its thread's density is wire corruption (400) everywhere.
func TestUploadRejectsInvalidTrace(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	tr := fig4Trace(t)
	var base bytes.Buffer
	if err := tr.WriteBinary(&base); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		status  int
		class   string // validation class, or "corrupt" for a 400
		corrupt func(tr *trace.Trace)
	}{
		{"empty-lock", http.StatusUnprocessableEntity, trace.InvalidMissingField, func(tr *trace.Trace) {
			tr.Tuples[0].Lock = ""
		}},
		{"key-zero-occ", http.StatusUnprocessableEntity, trace.InvalidBadKey, func(tr *trace.Trace) {
			tr.Tuples[0].Key.Occ = 0
		}},
		{"held-duplicate", http.StatusUnprocessableEntity, trace.InvalidHeldSet, func(tr *trace.Trace) {
			for i := len(tr.Tuples) - 1; i >= 0; i-- {
				if len(tr.Tuples[i].Held) > 0 {
					tr.Tuples[i].Held = append(tr.Tuples[i].Held, tr.Tuples[i].Held[0])
					return
				}
			}
			t.Fatal("no tuple with held locks in fixture")
		}},
		{"thread-id-range", http.StatusUnprocessableEntity, trace.InvalidThreadID, func(tr *trace.Trace) {
			tr.Tuples[0].ThreadID = 99
		}},
		{"clock-shape", http.StatusUnprocessableEntity, trace.InvalidClockShape, func(tr *trace.Trace) {
			tr.Taus = tr.Taus[:len(tr.Taus)-1]
		}},
		{"tau-backwards", http.StatusUnprocessableEntity, trace.InvalidNonMonotonicTau, func(tr *trace.Trace) {
			for _, name := range tr.Threads() {
				if ts := tr.ByThread(name); len(ts) >= 2 {
					ts[0].Tau = 1 << 20
					return
				}
			}
			t.Fatal("no thread with two acquisitions in fixture")
		}},
		{"bad-position", http.StatusBadRequest, "corrupt", func(tr *trace.Trace) {
			tr.Tuples[0].Pos = 9
		}},
	}
	invalidTotal := func() int64 {
		var n int64
		for _, v := range s.Metrics().InvalidTraces.Snapshot() {
			n += v
		}
		return n
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := corruptTrace(t, base.Bytes(), tc.corrupt)
			var js, bin bytes.Buffer
			if err := bad.Write(&js); err != nil {
				t.Fatal(err)
			}
			if err := bad.WriteBinary(&bin); err != nil {
				t.Fatal(err)
			}
			doors := []struct {
				name string
				send func() (int, map[string]any)
			}{
				{"json", func() (int, map[string]any) { return postTrace(t, ts.URL+"/v1/traces", js.Bytes(), nil) }},
				{"wtrc", func() (int, map[string]any) { return postTrace(t, ts.URL+"/v1/traces", bin.Bytes(), nil) }},
				{"stream", func() (int, map[string]any) { return streamUpload(t, ts.URL, bin.Bytes()) }},
			}
			for _, door := range doors {
				before, beforeTotal := s.Metrics().InvalidTraces.Get(tc.class), invalidTotal()
				code, out := door.send()
				if code != tc.status {
					t.Fatalf("%s: upload = %d (%v), want %d", door.name, code, out, tc.status)
				}
				if msg, _ := out["error"].(string); !strings.Contains(msg, tc.class) {
					t.Fatalf("%s: error %q does not name class %s", door.name, msg, tc.class)
				}
				want := int64(0)
				if tc.status == http.StatusUnprocessableEntity {
					want = 1
				}
				if got := s.Metrics().InvalidTraces.Get(tc.class) - before; got != want {
					t.Fatalf("%s: class %s counted %d times, want %d", door.name, tc.class, got, want)
				}
				if got := invalidTotal() - beforeTotal; got != want {
					t.Fatalf("%s: invalid-trace total moved by %d, want %d", door.name, got, want)
				}
			}
		})
	}
	if got := s.Metrics().JobsAccepted.Load(); got != 0 {
		t.Fatalf("accepted = %d, want 0", got)
	}

	// The classes render as a labeled counter family and the exposition
	// output still lints.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `wolfd_traces_invalid_total{class="bad-key"} 3`) {
		t.Fatalf("invalid-trace counter missing:\n%s", text)
	}
	if errs := obs.PromLint(strings.NewReader(text)); len(errs) != 0 {
		t.Fatalf("metrics output fails lint: %v\n%s", errs, text)
	}

	// A well-formed upload still flows after the rejections.
	if code, _ := postTrace(t, ts.URL+"/v1/traces", base.Bytes(), nil); code != http.StatusAccepted {
		t.Fatalf("valid upload after rejections = %d", code)
	}
}

// TestSyncAnalyzeShedding: POST /v1/analyze sheds load with 429 +
// Retry-After when every worker slot is busy, and accepts again once a
// slot frees up.
func TestSyncAnalyzeShedding(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	hook := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
			return core.AnalyzeTraceCtx(ctx, tr, cfg)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: hook})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			first <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first analysis never started")
	}

	// The single slot is held: the next sync request bounces immediately.
	resp := postTraceResp(t, ts.URL+"/v1/analyze", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated sync analyze = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if s.Metrics().SyncRejected.Load() != 1 {
		t.Fatal("shed request not counted")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first sync analyze = %d, want 200", code)
	}
	// Slot free again: the next request is admitted.
	resp = postTraceResp(t, ts.URL+"/v1/analyze", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release sync analyze = %d, want 200", resp.StatusCode)
	}
}

// TestSyncAnalyzePanic: a panicking synchronous analysis answers 500
// with the panic surfaced and counted, like a queued job's, and the
// next request is served.
func TestSyncAnalyzePanic(t *testing.T) {
	var calls atomic.Int32
	boom := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		if calls.Add(1) == 1 {
			panic("synthetic analyzer bug")
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: boom})
	var buf bytes.Buffer
	if err := fig4Trace(t).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out := postTrace(t, ts.URL+"/v1/analyze", buf.Bytes(), nil)
	if msg, _ := out["error"].(string); code != http.StatusInternalServerError || !strings.Contains(msg, "synthetic analyzer bug") {
		t.Fatalf("panicking sync analyze = %d %v, want 500 with the panic", code, out)
	}
	if s.Metrics().JobsPanicked.Load() != 1 {
		t.Fatal("sync panic not counted")
	}
	if code, _ := postTrace(t, ts.URL+"/v1/analyze", buf.Bytes(), nil); code != http.StatusOK {
		t.Fatalf("sync analyze after a panic = %d, want 200", code)
	}
}

// TestSyncAnalyzeWatchdog: a synchronous analysis that ignores its
// cancelled context is abandoned after JobTimeout+WatchdogGrace with a
// counted 500, and its slot is free for the next request.
func TestSyncAnalyzeWatchdog(t *testing.T) {
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) }) // let the abandoned goroutine exit
	var calls atomic.Int32
	stuck := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		if calls.Add(1) == 1 {
			<-hung // ignores ctx entirely: the watchdog's target
			return nil, fmt.Errorf("released")
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startServer(t, Config{
		Workers: 1, QueueSize: 4, Analyze: stuck,
		JobTimeout: 50 * time.Millisecond, WatchdogGrace: 50 * time.Millisecond,
	})
	var buf bytes.Buffer
	if err := fig4Trace(t).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out := postTrace(t, ts.URL+"/v1/analyze", buf.Bytes(), nil)
	if msg, _ := out["error"].(string); code != http.StatusInternalServerError || !strings.Contains(msg, "watchdog") {
		t.Fatalf("stuck sync analyze = %d %v, want 500 from the watchdog", code, out)
	}
	if s.Metrics().JobsWatchdogged.Load() != 1 || s.Metrics().JobsTimedOut.Load() != 0 {
		t.Fatalf("watchdogged=%d timed out=%d, want 1 and 0",
			s.Metrics().JobsWatchdogged.Load(), s.Metrics().JobsTimedOut.Load())
	}
	if code, _ := postTrace(t, ts.URL+"/v1/analyze", buf.Bytes(), nil); code != http.StatusOK {
		t.Fatalf("sync analyze beside an abandoned one = %d, want 200", code)
	}
}

// TestReplayMetricsRendered: divergence histograms, replay methods and
// fault counts from analysis reports surface as labeled counters on
// /metrics and the output still lints.
func TestReplayMetricsRendered(t *testing.T) {
	fake := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		return &core.Report{
			Tool: "fake",
			Cycles: []*core.CycleReport{
				{ReplayMethod: replay.MethodSteering},
				{
					ReplayMethod: replay.MethodFallback,
					Divergence: replay.Divergence{
						replay.DivergenceStarved:  2,
						replay.DivergenceMaxSteps: 1,
					},
					Faults: sim.FaultStats{Preemptions: 3, Wakeups: 1},
				},
			},
		}, nil
	}
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: fake})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	pollJob(t, ts.URL, out["id"].(string))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`wolfd_replay_confirmed_total{method="fallback"} 1`,
		`wolfd_replay_confirmed_total{method="steering"} 1`,
		`wolfd_replay_divergence_total{reason="max-steps"} 1`,
		`wolfd_replay_divergence_total{reason="starved"} 2`,
		"wolfd_replay_faults_injected_total 4",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if errs := obs.PromLint(strings.NewReader(text)); len(errs) != 0 {
		t.Fatalf("metrics output fails lint: %v\n%s", errs, text)
	}
}
