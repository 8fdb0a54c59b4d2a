package server

// Completion tests: a verdict is finished by one function whatever its
// transport, so the single role and a coordinator with a remote
// analyzer serve the same report, corpus and verdict metrics for the
// same traces; a malformed successful completion changes nothing.

import (
	"bufio"
	"context"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/fleet"
	"wolf/internal/replay"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// parityAnalyze is the offline analysis with what varies between runs
// pinned: the phase timings are fixed. Every other unknown defect is
// marked confirmed by steering, after two starved attempts and one
// injected preemption per cycle, so the replay families have something
// to count (the offline pipeline never replays).
func parityAnalyze(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
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

// completionSummaries analyzes tr as an analyzer does and returns the
// corpus summaries its completion carries.
func completionSummaries(t *testing.T, tr *trace.Trace) []store.CycleSummary {
	t.Helper()
	req, _ := fleet.NewAnalyzerFor(nil, fleet.AnalyzerConfig{}).Analyze(context.Background(), fleet.WorkView{Trace: tr})
	if !req.OK {
		t.Fatalf("analysis failed: %s", req.Error)
	}
	return req.Summaries
}

// metricSeries reads every sample of /metrics, keyed by series.
func metricSeries(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// verdictDeltas is what a run added to the verdict series: the cycle,
// defect, replay and completion counters and the sample counts of the
// phase and analysis histograms.
func verdictDeltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		name, _, _ := strings.Cut(k, "{")
		switch {
		case name == "wolfd_cycles_total", name == "wolfd_defects_total",
			name == "wolfd_replay_confirmed_total", name == "wolfd_replay_divergence_total",
			name == "wolfd_replay_faults_injected_total", name == "wolfd_jobs_completed_total",
			strings.HasPrefix(name, "wolfd_phase_") && strings.HasSuffix(name, "_seconds_count"),
			name == "wolfd_analysis_seconds_count":
			out[k] = v - before[k]
		}
	}
	return out
}

// parityRun is what one role served for the parity traces.
type parityRun struct {
	reports [][]byte
	defects []store.DefectRecord
	deltas  map[string]float64
}

// runParity uploads bodies one at a time to base, waiting for each job,
// and collects the reports, the corpus and the verdict-metric deltas.
func runParity(t *testing.T, base string, bodies [][]byte) parityRun {
	t.Helper()
	before := metricSeries(t, base)
	var run parityRun
	for _, body := range bodies {
		v := uploadAndFinish(t, base, body)
		if v.State != string(StateDone) {
			t.Fatalf("job = %+v, want done", v)
		}
		code, rep := getBody(t, base+"/v1/jobs/"+v.ID+"/report")
		if code != http.StatusOK {
			t.Fatalf("report of %s = %d: %s", v.ID, code, rep)
		}
		run.reports = append(run.reports, rep)
	}
	run.deltas = verdictDeltas(before, metricSeries(t, base))
	var page struct {
		Defects []store.DefectRecord `json:"defects"`
	}
	if code := getJSON(t, base+"/v1/defects?limit=1000", &page); code != http.StatusOK {
		t.Fatalf("defects = %d", code)
	}
	for i := range page.Defects { // what depends on the clock
		d := &page.Defects[i]
		d.FirstSeen, d.LastSeen, d.Rank = time.Time{}, time.Time{}, 0
	}
	slices.SortFunc(page.Defects, func(a, b store.DefectRecord) int { return strings.Compare(a.Fingerprint, b.Fingerprint) })
	run.defects = page.Defects
	return run
}

// TestCompletionRoleParity runs the Figure 4, HashMap and Jigsaw traces
// through the single role and through a coordinator with one HTTP
// analyzer, each over a corpus: the report bodies are byte-identical,
// the corpora equal, and the verdict metrics moved by the same amounts.
func TestCompletionRoleParity(t *testing.T) {
	var bodies [][]byte
	for _, name := range []string{"Figure4", "HashMap", "Jigsaw"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		bodies = append(bodies, binBody(t, registryTrace(t, w)))
	}

	st1 := openStore(t, t.TempDir())
	defer st1.Close()
	_, single := startServer(t, Config{Workers: 1, QueueSize: 8, Store: st1, Analyze: parityAnalyze})
	want := runParity(t, single.URL, bodies)

	st2 := openStore(t, t.TempDir())
	defer st2.Close()
	_, coord := startServer(t, Config{
		Role: RoleCoordinator, QueueSize: 8, Store: st2,
		LeaseTTL: 10 * time.Second, HeartbeatTimeout: 10 * time.Second,
	})
	a := fleet.NewAnalyzer(fleet.AnalyzerConfig{
		Coordinator: coord.URL, Name: "parity", Poll: 10 * time.Millisecond,
		JobTimeout: 30 * time.Second, Analyze: parityAnalyze,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	got := runParity(t, coord.URL, bodies)

	for i := range bodies {
		if string(got.reports[i]) != string(want.reports[i]) {
			t.Errorf("report %d differs:\nsingle      %.300s\ncoordinator %.300s", i, want.reports[i], got.reports[i])
		}
	}
	if !reflect.DeepEqual(got.defects, want.defects) {
		t.Errorf("defects differ:\nsingle      %+v\ncoordinator %+v", want.defects, got.defects)
	}
	for _, k := range []string{
		"wolfd_cycles_total", `wolfd_defects_total{class="unknown"}`, `wolfd_defects_total{class="pruned"}`,
		`wolfd_replay_confirmed_total{method="steering"}`, `wolfd_replay_divergence_total{reason="starved"}`,
		"wolfd_phase_detect_seconds_count",
	} {
		if want.deltas[k] <= 0 {
			t.Errorf("single role: %s moved by %v, want > 0", k, want.deltas[k])
		}
	}
	if !reflect.DeepEqual(got.deltas, want.deltas) {
		t.Errorf("verdict metrics differ:\nsingle      %v\ncoordinator %v", want.deltas, got.deltas)
	}
}

// TestCompleteRejectsMalformedReport: a successful completion whose
// report is absent or not a JSON object is a 400 and changes nothing —
// the job stays leased — and a well-formed one then finishes the job
// and is served verbatim.
func TestCompleteRejectsMalformedReport(t *testing.T) {
	_, ts := startServer(t, Config{
		Role: RoleCoordinator, QueueSize: 4,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	})
	id := uploadFig4(t, ts.URL)
	node := registerNode(t, ts.URL, "a")
	if w := pullWork(t, ts.URL, node); w.Job != id {
		t.Fatalf("granted %s, want %s", w.Job, id)
	}
	for name, req := range map[string]any{
		"absent": fleet.CompleteRequest{Node: node, Job: id, OK: true},
		"null":   map[string]any{"node": node, "job": id, "ok": true, "report": nil},
		"number": map[string]any{"node": node, "job": id, "ok": true, "report": 5},
		"array":  map[string]any{"node": node, "job": id, "ok": true, "report": []int{}},
	} {
		if code := fleetPost(t, ts.URL+"/v1/work/complete", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s report: complete = %d, want 400", name, code)
		}
	}
	var v JobView
	getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
	if v.State != string(StateRunning) {
		t.Fatalf("after the rejected completions the job is %s, want running", v.State)
	}
	if got := metricSeries(t, ts.URL)["wolfd_jobs_completed_total"]; got != 0 {
		t.Fatalf("wolfd_jobs_completed_total = %v after rejected completions, want 0", got)
	}
	var verdict fleet.CompleteView
	if code := fleetPost(t, ts.URL+"/v1/work/complete", okComplete(node, id), &verdict); code != http.StatusOK || verdict.Result != "accepted" {
		t.Fatalf("complete = %d %q, want 200 accepted", code, verdict.Result)
	}
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/report"); code != http.StatusOK || string(body) != `{"summary":{"candidates":0}}` {
		t.Fatalf("report = %d %s", code, body)
	}
}

// TestAnalysisMetricsFromFirstLease: wolfd_analysis_seconds runs from a
// job's first lease to its verdict on a coordinator as in the single
// role, so a job that waited in the queue counts its wait once, in
// wolfd_queue_wait_seconds.
func TestAnalysisMetricsFromFirstLease(t *testing.T) {
	_, ts := startServer(t, Config{
		Role: RoleCoordinator, QueueSize: 4,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	})
	id := uploadFig4(t, ts.URL)
	const wait = 300 * time.Millisecond
	time.Sleep(wait)
	node := registerNode(t, ts.URL, "a")
	if w := pullWork(t, ts.URL, node); w.Job != id {
		t.Fatalf("granted %s, want %s", w.Job, id)
	}
	if code := fleetPost(t, ts.URL+"/v1/work/complete", okComplete(node, id), nil); code != http.StatusOK {
		t.Fatalf("complete = %d", code)
	}
	m := metricSeries(t, ts.URL)
	if m["wolfd_analysis_seconds_count"] != 1 || m["wolfd_queue_wait_seconds_count"] != 1 {
		t.Fatalf("analysis count %v, queue wait count %v, want 1 each",
			m["wolfd_analysis_seconds_count"], m["wolfd_queue_wait_seconds_count"])
	}
	if q := m["wolfd_queue_wait_seconds_sum"]; q < wait.Seconds() {
		t.Errorf("queue wait = %vs, want at least %v", q, wait)
	}
	if a := m["wolfd_analysis_seconds_sum"]; a >= wait.Seconds() {
		t.Errorf("analysis = %vs, counts the %v queue wait", a, wait)
	}
}
