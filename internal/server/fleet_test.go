package server

// Fleet (coordinator + analyzer) tests: the failure drills behind the
// robustness story. Raw-protocol tests drive the lease endpoints by
// hand so expiry, reassignment, exhaustion, stragglers and duplicate
// completions happen deterministically; the end-to-end test runs a
// real internal/fleet.Analyzer against the coordinator and checks the
// distributed path lands the same defects as the local one.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/fleet"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// fleetPost posts v as JSON and decodes the reply into out (when 2xx
// and out != nil), returning the status code.
func fleetPost(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// registerNode registers one analyzer identity, returning its ID.
func registerNode(t *testing.T, base, name string) string {
	t.Helper()
	var view fleet.RegisterView
	if code := fleetPost(t, base+"/v1/nodes", fleet.RegisterRequest{Name: name}, &view); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	return view.ID
}

// pullWork polls /v1/work/pull as node until a grant arrives.
func pullWork(t *testing.T, base, node string) fleet.WorkView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var w fleet.WorkView
		code := fleetPost(t, base+"/v1/work/pull", fleet.PullRequest{Node: node}, &w)
		switch code {
		case http.StatusOK:
			return w
		case http.StatusNoContent:
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("pull = %d", code)
		}
	}
	t.Fatal("no work granted in time")
	return fleet.WorkView{}
}

// uploadFig4 uploads the Figure 4 trace and returns the job ID.
func uploadFig4(t *testing.T, base string) string {
	t.Helper()
	tr := fig4Trace(t)
	var body bytes.Buffer
	if err := tr.Write(&body); err != nil {
		t.Fatal(err)
	}
	code, accepted := postTrace(t, base+"/v1/traces", body.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	id, _ := accepted["id"].(string)
	if id == "" {
		t.Fatal("no job id in upload reply")
	}
	return id
}

// okComplete is a minimal successful completion for protocol tests
// that do not care about report contents.
func okComplete(node, job string) fleet.CompleteRequest {
	return fleet.CompleteRequest{
		Node: node, Job: job, OK: true,
		Report: json.RawMessage(`{"summary":{"candidates":0}}`),
	}
}

// TestFleetAnalyzerEndToEnd runs a real analyzer against a coordinator
// with a persistent corpus and checks the distributed path records the
// same defect fingerprints as a local analysis of the same trace.
func TestFleetAnalyzerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator, Store: st,
		LeaseTTL: 2 * time.Second, HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
	})

	a := fleet.NewAnalyzer(fleet.AnalyzerConfig{
		Coordinator: ts.URL, Name: "e2e", Poll: 10 * time.Millisecond,
		JobTimeout: 15 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	id := uploadFig4(t, ts.URL)
	v := pollJob(t, ts.URL, id)
	if v.State != string(StateDone) {
		t.Fatalf("job = %s (%s), want done", v.State, v.Error)
	}
	if v.Node == "" || v.Attempts != 1 {
		t.Fatalf("job view node=%q attempts=%d, want a node and 1 attempt", v.Node, v.Attempts)
	}

	// The corpus must hold exactly what a local analysis records.
	want := completionSummaries(t, fig4Trace(t))
	if len(want) == 0 {
		t.Fatal("local analysis found no defects to compare")
	}
	var defects struct {
		Defects []struct {
			Fingerprint string `json:"fingerprint"`
		} `json:"defects"`
	}
	if code := getJSON(t, ts.URL+"/v1/defects", &defects); code != http.StatusOK {
		t.Fatalf("defects = %d", code)
	}
	got := map[string]bool{}
	for _, d := range defects.Defects {
		got[d.Fingerprint] = true
	}
	for _, sum := range want {
		if !got[sum.Fingerprint] {
			t.Errorf("fingerprint %s missing from the distributed corpus", sum.Fingerprint)
		}
	}

	// The ops surface reports the fleet.
	var status StatusView
	if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if status.Role != "coordinator" || status.Fleet == nil || status.Fleet.Nodes != 1 {
		t.Fatalf("status role=%q fleet=%+v, want coordinator with 1 node", status.Role, status.Fleet)
	}
	var nodes struct {
		Nodes []fleet.NodeView `json:"nodes"`
	}
	if code := getJSON(t, ts.URL+"/v1/nodes", &nodes); code != http.StatusOK {
		t.Fatalf("nodes = %d", code)
	}
	if len(nodes.Nodes) != 1 || nodes.Nodes[0].State != "alive" || nodes.Nodes[0].Completed != 1 {
		t.Fatalf("nodes = %+v, want one alive node with 1 completion", nodes.Nodes)
	}
	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if hz["role"] != "coordinator" || hz["nodes"] != float64(1) {
		t.Fatalf("healthz = %v, want coordinator with 1 node", hz)
	}
}

// TestFleetSingleModeSurface pins the default role: fleet mutation
// endpoints refuse, the node list is empty, and role reporting says
// single. The in-process analyzers leave no fleet trace: job views
// carry no node or attempts, and neither /metrics nor /healthz shows
// nodes or leases.
func TestFleetSingleModeSurface(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	var w fleet.WorkView
	if code := fleetPost(t, ts.URL+"/v1/work/pull", fleet.PullRequest{Node: "n-0001"}, &w); code != http.StatusServiceUnavailable {
		t.Fatalf("pull in single mode = %d, want 503", code)
	}
	if code := fleetPost(t, ts.URL+"/v1/nodes", fleet.RegisterRequest{Name: "x"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("register in single mode = %d, want 503", code)
	}
	var nodes struct {
		Nodes []fleet.NodeView `json:"nodes"`
	}
	if code := getJSON(t, ts.URL+"/v1/nodes", &nodes); code != http.StatusOK || len(nodes.Nodes) != 0 {
		t.Fatalf("nodes in single mode = %d %v, want 200 and empty", code, nodes.Nodes)
	}
	var status StatusView
	getJSON(t, ts.URL+"/v1/status", &status)
	if status.Role != "single" || status.Fleet != nil {
		t.Fatalf("status role=%q fleet=%v, want single and no fleet block", status.Role, status.Fleet)
	}
	var hz map[string]any
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz["role"] != "single" {
		t.Fatalf("healthz role = %v, want single", hz["role"])
	}

	id := uploadFig4(t, ts.URL)
	if v := pollJob(t, ts.URL, id); v.State != string(StateDone) {
		t.Fatalf("job = %s (%s), want done", v.State, v.Error)
	}
	var view map[string]any
	getJSON(t, ts.URL+"/v1/jobs/"+id, &view)
	for _, key := range []string{"node", "attempts"} {
		if _, ok := view[key]; ok {
			t.Errorf("single-role job view carries %q: %v", key, view)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	for _, family := range []string{"wolfd_nodes_", "wolfd_lease_", "wolfd_node_leased"} {
		if strings.Contains(text.String(), family) {
			t.Errorf("single-role /metrics has a %s family", family)
		}
	}
	hz = nil
	getJSON(t, ts.URL+"/healthz", &hz)
	if _, ok := hz["nodes"]; ok {
		t.Errorf("single-role healthz carries nodes: %v", hz)
	}
}

// TestCoordinatorCountsRemoteFailureReasons: a remote analyzer's
// failure verdicts are counted under the reason they carry — a panic
// as panic and a timeout as timeout, not both as error — and the node
// survives both to complete the next job.
func TestCoordinatorCountsRemoteFailureReasons(t *testing.T) {
	const panicSeed, slowSeed = 901, 902
	analyze := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		switch tr.Seed {
		case panicSeed:
			panic("synthetic remote analyzer bug")
		case slowSeed:
			<-ctx.Done() // blocks past the job timeout
			return nil, ctx.Err()
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startRole(t, RoleCoordinator, Config{QueueSize: 8, JobTimeout: 50 * time.Millisecond, Analyze: analyze})
	upload := func(seed int64) JobView {
		tr := fig4Trace(t)
		tr.Seed = seed
		var body bytes.Buffer
		if err := tr.WriteBinary(&body); err != nil {
			t.Fatal(err)
		}
		code, out := postTrace(t, ts.URL+"/v1/traces", body.Bytes(), nil)
		if code != http.StatusAccepted {
			t.Fatalf("upload = %d", code)
		}
		return pollJob(t, ts.URL, out["id"].(string))
	}
	if v := upload(panicSeed); v.State != string(StateFailed) || !strings.Contains(v.Error, "synthetic remote analyzer bug") {
		t.Fatalf("panicking job = %+v, want the panic surfaced", v)
	}
	if v := upload(slowSeed); v.State != string(StateFailed) || !strings.Contains(v.Error, "timed out") {
		t.Fatalf("slow job = %+v, want a timeout", v)
	}
	if v := upload(1); v.State != string(StateDone) {
		t.Fatalf("next job = %+v, want done on the surviving node", v)
	}
	m := s.Metrics()
	if m.JobsPanicked.Load() != 1 || m.JobsTimedOut.Load() != 1 || m.JobsErrored.Load() != 0 {
		t.Fatalf("failed panic=%d timeout=%d error=%d, want 1 1 0",
			m.JobsPanicked.Load(), m.JobsTimedOut.Load(), m.JobsErrored.Load())
	}
}

// TestCompleteUnknownReasonCountsAsError: a failure verdict with an
// empty or unknown reason counts under reason="error".
func TestCompleteUnknownReasonCountsAsError(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	})
	node := registerNode(t, ts.URL, "a")
	for _, reason := range []string{"", "gremlins"} {
		id := uploadFig4(t, ts.URL)
		if w := pullWork(t, ts.URL, node); w.Job != id {
			t.Fatalf("granted %s, want %s", w.Job, id)
		}
		req := fleet.CompleteRequest{Node: node, Job: id, Error: "boom", Reason: reason}
		var verdict fleet.CompleteView
		if code := fleetPost(t, ts.URL+"/v1/work/complete", req, &verdict); code != http.StatusOK || verdict.Result != "accepted" {
			t.Fatalf("complete = %d %q", code, verdict.Result)
		}
	}
	if got := s.Metrics().JobsErrored.Load(); got != 2 {
		t.Fatalf("error failures = %d, want 2", got)
	}
}

// TestDotOfRemoteJob: the coordinator regenerates the graph of a job a
// remote node completed from the job's trace in its corpus, whether the
// node completed it in this process — also one leased before a restart,
// requeued and completed after it — or before the restart.
func TestDotOfRemoteJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	}
	dotOK := func(base, id string) {
		t.Helper()
		if code, body := getBody(t, base+"/v1/jobs/"+id+"/dot"); code != http.StatusOK || !strings.Contains(string(body), "digraph Gs") {
			t.Fatalf("dot of %s = %d, want 200 with a Gs: %.200s", id, code, body)
		}
	}
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st1
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	node := registerNode(t, ts1.URL, "a")
	doneBefore := uploadFig4(t, ts1.URL)
	if w := pullWork(t, ts1.URL, node); w.Job != doneBefore {
		t.Fatalf("granted %s, want %s", w.Job, doneBefore)
	}
	if code := fleetPost(t, ts1.URL+"/v1/work/complete", okComplete(node, doneBefore), nil); code != http.StatusOK {
		t.Fatalf("complete = %d", code)
	}
	dotOK(ts1.URL, doneBefore)
	requeued := uploadFig4(t, ts1.URL)
	if w := pullWork(t, ts1.URL, node); w.Job != requeued {
		t.Fatalf("granted %s, want %s", w.Job, requeued)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg.Store = st2
	_, ts2 := startServer(t, cfg)
	fresh := registerNode(t, ts2.URL, "b")
	if w := pullWork(t, ts2.URL, fresh); w.Job != requeued {
		t.Fatalf("post-restart grant = %s, want %s", w.Job, requeued)
	}
	if code := fleetPost(t, ts2.URL+"/v1/work/complete", okComplete(fresh, requeued), nil); code != http.StatusOK {
		t.Fatalf("post-restart complete = %d", code)
	}
	dotOK(ts2.URL, doneBefore)
	dotOK(ts2.URL, requeued)
}

// TestLeaseExpiryReassignFirstResultWins is the core failure drill: a
// lease expires unrenewed, the job is redelivered to a second node,
// and then the FIRST node — lease long dead — still delivers first and
// wins; the second result is a duplicate.
func TestLeaseExpiryReassignFirstResultWins(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: 40 * time.Millisecond, HeartbeatTimeout: time.Hour,
		MaxDeliveries: 3,
	})
	nodeA := registerNode(t, ts.URL, "a")
	nodeB := registerNode(t, ts.URL, "b")
	id := uploadFig4(t, ts.URL)

	wA := pullWork(t, ts.URL, nodeA)
	if wA.Job != id || wA.Attempts != 1 {
		t.Fatalf("grant A = %+v, want job %s attempt 1", wA, id)
	}
	if wA.TraceB64 == "" {
		t.Fatal("grant A carries no trace blob")
	}
	// A never renews: the janitor expires the lease and the job goes
	// back to pending, where B picks it up.
	wB := pullWork(t, ts.URL, nodeB)
	if wB.Job != id || wB.Attempts != 2 {
		t.Fatalf("grant B = %+v, want job %s attempt 2", wB, id)
	}
	if s.metrics.JobsReassigned.Load() == 0 {
		t.Fatal("no reassignment counted")
	}

	// A's late result wins because the job is still non-terminal.
	var verdict fleet.CompleteView
	if code := fleetPost(t, ts.URL+"/v1/work/complete", okComplete(nodeA, id), &verdict); code != http.StatusOK {
		t.Fatalf("complete A = %d", code)
	}
	if verdict.Result != "accepted" {
		t.Fatalf("complete A result = %q, want accepted (first result wins)", verdict.Result)
	}
	if code := fleetPost(t, ts.URL+"/v1/work/complete", okComplete(nodeB, id), &verdict); code != http.StatusOK {
		t.Fatalf("complete B = %d", code)
	}
	if verdict.Result != "duplicate" {
		t.Fatalf("complete B result = %q, want duplicate", verdict.Result)
	}
	if v := pollJob(t, ts.URL, id); v.State != string(StateDone) {
		t.Fatalf("job = %s, want done", v.State)
	}
	if s.metrics.DuplicateResults.Load() != 1 {
		t.Fatalf("duplicates = %d, want 1", s.metrics.DuplicateResults.Load())
	}
}

// TestReassignExhausted pins the redelivery bound: a job whose leases
// keep expiring is terminal-failed with reason reassign-exhausted
// instead of ping-ponging forever.
func TestReassignExhausted(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: 30 * time.Millisecond, HeartbeatTimeout: time.Hour,
		MaxDeliveries: 2,
	})
	node := registerNode(t, ts.URL, "flaky")
	id := uploadFig4(t, ts.URL)

	first := pullWork(t, ts.URL, node)
	if first.Job != id {
		t.Fatalf("granted %s, want %s", first.Job, id)
	}
	second := pullWork(t, ts.URL, node) // after expiry: redelivery 2/2
	if second.Job != id || second.Attempts != 2 {
		t.Fatalf("grant 2 = %+v, want job %s attempt 2", second, id)
	}
	// Let the final lease expire too; the budget is spent.
	v := pollJob(t, ts.URL, id)
	if v.State != string(StateFailed) || !strings.Contains(v.Error, "reassign budget exhausted") {
		t.Fatalf("job = %s (%q), want failed with reassign budget exhausted", v.State, v.Error)
	}
	if s.metrics.JobsReassignEx.Load() != 1 {
		t.Fatalf("reassign-exhausted count = %d, want 1", s.metrics.JobsReassignEx.Load())
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	if !strings.Contains(text.String(), `wolfd_jobs_failed_total{reason="reassign-exhausted"} 1`) {
		t.Fatal("metrics missing the reassign-exhausted failure reason")
	}
}

// TestNodeLostReassignsWork drills the heartbeat path: a node that
// goes silent past HeartbeatTimeout is declared lost, its heartbeats
// are refused with 404 (forcing re-registration), and its leased job
// is redelivered to a surviving node.
func TestNodeLostReassignsWork(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: 40 * time.Millisecond,
		MaxDeliveries: 3,
	})
	dead := registerNode(t, ts.URL, "dead")
	id := uploadFig4(t, ts.URL)
	if w := pullWork(t, ts.URL, dead); w.Job != id {
		t.Fatalf("granted %s, want %s", w.Job, id)
	}

	// The survivor registers and polls; each pull refreshes its own
	// liveness, while "dead" never heartbeats again.
	live := registerNode(t, ts.URL, "live")
	w := pullWork(t, ts.URL, live)
	if w.Job != id || w.Attempts != 2 {
		t.Fatalf("survivor grant = %+v, want job %s attempt 2", w, id)
	}
	if code := fleetPost(t, ts.URL+"/v1/nodes/"+dead+"/heartbeat", struct{}{}, nil); code != http.StatusNotFound {
		t.Fatalf("heartbeat from lost node = %d, want 404", code)
	}
	var nodes struct {
		Nodes []fleet.NodeView `json:"nodes"`
	}
	getJSON(t, ts.URL+"/v1/nodes", &nodes)
	states := map[string]string{}
	for _, n := range nodes.Nodes {
		states[n.ID] = n.State
	}
	if states[dead] != "lost" || states[live] != "alive" {
		t.Fatalf("node states = %v, want %s lost and %s alive", states, dead, live)
	}
	if s.metrics.NodesLost.Load() != 1 {
		t.Fatalf("nodes lost = %d, want 1", s.metrics.NodesLost.Load())
	}

	var verdict fleet.CompleteView
	fleetPost(t, ts.URL+"/v1/work/complete", okComplete(live, id), &verdict)
	if verdict.Result != "accepted" {
		t.Fatalf("survivor result = %q, want accepted", verdict.Result)
	}

	// The flight recorder saw the whole story.
	for _, kind := range []string{"node.join", "node.lost", "job.reassigned"} {
		var evs struct {
			Events []json.RawMessage `json:"events"`
		}
		getJSON(t, ts.URL+"/v1/debug/events?kind="+kind, &evs)
		if len(evs.Events) == 0 {
			t.Errorf("no %s event recorded", kind)
		}
	}
}

// TestStragglerReoffer drills the slow-node path: a lease renewed past
// MaxRenewals re-offers the job to a second node while the first keeps
// its lease; the second node's result lands first and wins, and the
// straggler's renewals then report the lease lost.
func TestStragglerReoffer(t *testing.T) {
	_, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
		MaxDeliveries: 3, MaxRenewals: 1,
	})
	slow := registerNode(t, ts.URL, "slow")
	fast := registerNode(t, ts.URL, "fast")
	id := uploadFig4(t, ts.URL)
	if w := pullWork(t, ts.URL, slow); w.Job != id {
		t.Fatalf("granted %s, want %s", w.Job, id)
	}

	// Renewal 1 is within budget; renewal 2 crosses MaxRenewals=1 and
	// triggers the re-offer.
	for i := 0; i < 2; i++ {
		var rv fleet.RenewView
		if code := fleetPost(t, ts.URL+"/v1/work/renew", fleet.RenewRequest{Node: slow, Job: id}, &rv); code != http.StatusOK {
			t.Fatalf("renew %d = %d", i+1, code)
		}
	}
	w := pullWork(t, ts.URL, fast)
	if w.Job != id || w.Attempts != 2 {
		t.Fatalf("re-offer grant = %+v, want job %s attempt 2", w, id)
	}

	var verdict fleet.CompleteView
	fleetPost(t, ts.URL+"/v1/work/complete", okComplete(fast, id), &verdict)
	if verdict.Result != "accepted" {
		t.Fatalf("fast result = %q, want accepted", verdict.Result)
	}
	if code := fleetPost(t, ts.URL+"/v1/work/renew", fleet.RenewRequest{Node: slow, Job: id}, nil); code != http.StatusConflict {
		t.Fatalf("straggler renew after finish = %d, want 409", code)
	}
	fleetPost(t, ts.URL+"/v1/work/complete", okComplete(slow, id), &verdict)
	if verdict.Result != "duplicate" {
		t.Fatalf("straggler result = %q, want duplicate", verdict.Result)
	}
}

// TestCoordinatorRestartRequeuesLeased proves leased-but-unfinished
// work survives a coordinator restart: journal rehydration re-queues
// the job (attempt count intact) instead of failing it, and a fresh
// node finishes it against the corpus blob.
func TestCoordinatorRestartRequeuesLeased(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour, MaxDeliveries: 3,
	}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st1
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	node := registerNode(t, ts1.URL, "doomed")
	id := uploadFig4(t, ts1.URL)
	w1 := pullWork(t, ts1.URL, node)
	if w1.Job != id || w1.Attempts != 1 {
		t.Fatalf("grant = %+v, want job %s attempt 1", w1, id)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg.Store = st2
	_, ts2 := startServer(t, cfg)

	// The restored job is queued again, not failed, with its delivery
	// history intact.
	var v JobView
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+id, &v); code != http.StatusOK {
		t.Fatalf("restored job status = %d", code)
	}
	if v.State != string(StateQueued) || v.Attempts != 1 {
		t.Fatalf("restored job = %s attempts=%d (%q), want queued with 1 attempt", v.State, v.Attempts, v.Error)
	}

	fresh := registerNode(t, ts2.URL, "fresh")
	w2 := pullWork(t, ts2.URL, fresh)
	if w2.Job != id || w2.Attempts != 2 {
		t.Fatalf("post-restart grant = %+v, want job %s attempt 2", w2, id)
	}
	if w2.TraceB64 == "" {
		t.Fatal("post-restart grant carries no trace blob (corpus rehydration failed)")
	}
	raw, err := base64.StdEncoding.DecodeString(w2.TraceB64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("shipped blob does not decode: %v", err)
	}

	// Finish it like a real analyzer: analyze the shipped blob and
	// deliver the summaries, which must land in the corpus.
	req := okComplete(fresh, id)
	req.Summaries = completionSummaries(t, tr)
	req.TraceHash = w2.TraceHash
	var verdict fleet.CompleteView
	if code := fleetPost(t, ts2.URL+"/v1/work/complete", req, &verdict); code != http.StatusOK || verdict.Result != "accepted" {
		t.Fatalf("post-restart complete = %d %q, want 200 accepted", code, verdict.Result)
	}
	if v := pollJob(t, ts2.URL, id); v.State != string(StateDone) {
		t.Fatalf("job = %s, want done", v.State)
	}
	var defects struct {
		Defects []json.RawMessage `json:"defects"`
	}
	getJSON(t, ts2.URL+"/v1/defects", &defects)
	if len(defects.Defects) == 0 {
		t.Fatal("no defects recorded after the post-restart completion")
	}
}

// TestUndeliverableJobAfterRestart: a job requeued by a coordinator
// restart whose corpus blob is gone by the time it reaches a node is
// terminal-failed as undeliverable, its lease dropped, and the pull
// answers 204; the next pull parks as usual.
func TestUndeliverableJobAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour, MaxDeliveries: 3,
	}
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st1
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := uploadFig4(t, ts1.URL)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg.Store = st2
	s, ts := startServer(t, cfg)
	var v JobView
	getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
	if v.State != string(StateQueued) || v.TraceHash == "" {
		t.Fatalf("restored job = %s hash %q, want queued with a trace hash", v.State, v.TraceHash)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/traces/"+v.TraceHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete trace = %d", resp.StatusCode)
	}

	node := registerNode(t, ts.URL, "n")
	if code := fleetPost(t, ts.URL+"/v1/work/pull", fleet.PullRequest{Node: node}, nil); code != http.StatusNoContent {
		t.Fatalf("pull of an undeliverable job = %d, want 204", code)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
	if v.State != string(StateFailed) || !strings.HasPrefix(v.Error, "undeliverable: ") {
		t.Fatalf("job = %s (%q), want failed as undeliverable", v.State, v.Error)
	}
	if n := s.metrics.JobsErrored.Load(); n != 1 {
		t.Fatalf("error failures = %d, want 1", n)
	}
	s.table.mu.Lock()
	leases := len(s.table.leases)
	s.table.mu.Unlock()
	if leases != 0 {
		t.Fatalf("%d leases after the undeliverable grant, want none", leases)
	}
	ch, cancelPull := startPull(t, ts.URL, node)
	waitParked(t, s, 1)
	cancelPull()
	<-ch
}

// TestCompleteFromForgottenNode pins the restart-completion edge: a
// result from a node identity the coordinator no longer knows (it
// restarted) is still accepted when the job is live — the work is
// done; identity is not what wins, timing is.
func TestCompleteFromForgottenNode(t *testing.T) {
	_, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: 40 * time.Millisecond, HeartbeatTimeout: time.Hour,
		MaxDeliveries: 3,
	})
	node := registerNode(t, ts.URL, "a")
	id := uploadFig4(t, ts.URL)
	if w := pullWork(t, ts.URL, node); w.Job != id {
		t.Fatalf("granted %s, want %s", w.Job, id)
	}
	var verdict fleet.CompleteView
	if code := fleetPost(t, ts.URL+"/v1/work/complete", okComplete("n-9999", id), &verdict); code != http.StatusOK {
		t.Fatalf("complete = %d", code)
	}
	if verdict.Result != "accepted" {
		t.Fatalf("result = %q, want accepted even from an unknown node", verdict.Result)
	}
}

// TestCompleteWithGarbledTrace: a completion whose shipped trace does
// not decode still finishes the job, but the trace is not archived and
// the rejection is visible — an error log line naming the job and the
// node, and a job event.
func TestCompleteWithGarbledTrace(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var logs syncBuffer
	_, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator, Store: st,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	node := registerNode(t, ts.URL, "garbler")
	var accepted map[string]any
	if code := fleetPost(t, ts.URL+"/v1/workloads/Figure4", struct{}{}, &accepted); code != http.StatusAccepted {
		t.Fatalf("workload job = %d", code)
	}
	id, _ := accepted["id"].(string)
	if w := pullWork(t, ts.URL, node); w.Job != id {
		t.Fatalf("granted %s, want %s", w.Job, id)
	}

	req := okComplete(node, id)
	req.TraceB64 = base64.StdEncoding.EncodeToString([]byte("WTRC not really a trace"))
	var verdict fleet.CompleteView
	if code := fleetPost(t, ts.URL+"/v1/work/complete", req, &verdict); code != http.StatusOK || verdict.Result != "accepted" {
		t.Fatalf("complete = %d %q, want 200 accepted", code, verdict.Result)
	}
	if v := pollJob(t, ts.URL, id); v.State != string(StateDone) {
		t.Fatalf("job = %s, want done", v.State)
	}
	if st.Stats().Traces != 0 {
		t.Fatal("garbled trace was archived")
	}

	var line string
	for _, l := range strings.Split(logs.String(), "\n") {
		if strings.Contains(l, "shipped trace rejected") {
			line = l
		}
	}
	if !strings.Contains(line, "level=ERROR") || !strings.Contains(line, "job="+id) || !strings.Contains(line, "node="+node) {
		t.Fatalf("no error log naming job %s and node %s:\n%s", id, node, logs.String())
	}
	var found bool
	for _, ev := range debugEvents(t, ts.URL, "?job="+id) {
		if ev.Kind == evStoreTrace && strings.Contains(ev.Msg, "rejected") && ev.Attrs["node"] == node {
			found = true
		}
	}
	if !found {
		t.Fatal("no job event for the rejected trace")
	}
}

// pullResult is the outcome of one background pull.
type pullResult struct {
	code int
	work fleet.WorkView
	err  error
}

// startPull sends one pull for node in the background. The returned
// cancel hangs the client up; cleanup does so too, so no test leaves a
// pull parked at a server it is closing.
func startPull(t *testing.T, base, node string) (<-chan pullResult, context.CancelFunc) {
	t.Helper()
	body, err := json.Marshal(fleet.PullRequest{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/work/pull", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan pullResult, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			ch <- pullResult{err: err}
			return
		}
		defer resp.Body.Close()
		r := pullResult{code: resp.StatusCode}
		if r.code == http.StatusOK {
			r.err = json.NewDecoder(resp.Body).Decode(&r.work)
		}
		ch <- r
	}()
	return ch, cancel
}

// awaitPull waits up to within for a background pull's outcome.
func awaitPull(t *testing.T, ch <-chan pullResult, within time.Duration) pullResult {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("pull: %v", r.err)
		}
		return r
	case <-time.After(within):
		t.Fatalf("pull not answered within %v", within)
		return pullResult{}
	}
}

// parkedPulls reads how many pulls wait at the coordinator.
func parkedPulls(s *Server) int {
	s.table.mu.Lock()
	defer s.table.mu.Unlock()
	return len(s.table.waiters)
}

// waitParked blocks until exactly n pulls wait at the coordinator.
func waitParked(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parkedPulls(s) != n {
		if time.Now().After(deadline) {
			t.Fatalf("parked pulls = %d, want %d", parkedPulls(s), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkedPullWakes: a pull with nothing to lease parks at the
// coordinator, and each way work appears — an upload, a reassignment
// by the lease sweep, a straggler re-offer, a job restored after a
// restart — wakes it with a grant long before the hold (30 minutes
// here) would answer 204.
func TestParkedPullWakes(t *testing.T) {
	// other takes the job first where the case needs a prior delivery.
	grantToOther := func(t *testing.T, base string) (other, id string) {
		other = registerNode(t, base, "other")
		id = uploadFig4(t, base)
		if w := pullWork(t, base, other); w.Job != id {
			t.Fatalf("granted %s, want %s", w.Job, id)
		}
		return other, id
	}
	cases := []struct {
		name string
		// setup runs before the pull parks and returns the trigger,
		// which makes work appear and names the job.
		setup        func(t *testing.T, s *Server, base string) (trigger func() string)
		wantAttempts int
	}{
		{"upload", func(t *testing.T, s *Server, base string) func() string {
			return func() string { return uploadFig4(t, base) }
		}, 1},
		{"sweep-reassign", func(t *testing.T, s *Server, base string) func() string {
			_, id := grantToOther(t, base)
			return func() string {
				s.sweep(time.Now().Add(2 * time.Minute)) // past the lease, not the heartbeat timeout
				return id
			}
		}, 2},
		{"straggler-reoffer", func(t *testing.T, s *Server, base string) func() string {
			other, id := grantToOther(t, base)
			return func() string {
				for i := 0; i < 2; i++ { // the second renewal crosses MaxRenewals=1
					if code := fleetPost(t, base+"/v1/work/renew", fleet.RenewRequest{Node: other, Job: id}, nil); code != http.StatusOK {
						t.Fatalf("renew = %d", code)
					}
				}
				return id
			}
		}, 2},
		{"requeue-restored", func(t *testing.T, s *Server, base string) func() string {
			return func() string {
				j := s.jobs.restoreQueued(store.JobRecord{
					ID: "j-000042", State: string(StateQueued), Source: "workload:Figure4",
					Attempts: 1, Created: time.Now(),
				})
				s.table.restore([]*Job{j})
				return j.ID
			}
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := startServer(t, Config{
				QueueSize: 8, Role: RoleCoordinator,
				LeaseTTL: time.Minute, HeartbeatTimeout: time.Hour,
				MaxDeliveries: 3, MaxRenewals: 1,
			})
			node := registerNode(t, ts.URL, "parked")
			trigger := tc.setup(t, s, ts.URL)
			ch, _ := startPull(t, ts.URL, node)
			waitParked(t, s, 1)
			id := trigger()
			r := awaitPull(t, ch, 5*time.Second)
			if r.code != http.StatusOK || r.work.Job != id || r.work.Attempts != tc.wantAttempts {
				t.Fatalf("parked pull = %d %+v, want a grant of %s attempt %d", r.code, r.work, id, tc.wantAttempts)
			}
			var v JobView
			getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
			if v.State != string(StateRunning) || v.Node != node {
				t.Fatalf("job = %s on %q, want running on %s", v.State, v.Node, node)
			}
		})
	}
}

// TestParkedPullHoldExpires: with no work, a pull is answered 204 once
// the hold (HeartbeatTimeout/2) passes, not at once.
func TestParkedPullHoldExpires(t *testing.T) {
	_, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: 400 * time.Millisecond,
	})
	var view fleet.RegisterView
	fleetPost(t, ts.URL+"/v1/nodes", fleet.RegisterRequest{Name: "idle"}, &view)
	if view.PullHoldMillis != 200 {
		t.Fatalf("pull_hold_millis = %d, want 200", view.PullHoldMillis)
	}
	start := time.Now()
	code := fleetPost(t, ts.URL+"/v1/work/pull", fleet.PullRequest{Node: view.ID}, nil)
	if code != http.StatusNoContent {
		t.Fatalf("idle pull = %d, want 204", code)
	}
	if d := time.Since(start); d < 150*time.Millisecond || d > 5*time.Second {
		t.Fatalf("idle pull answered after %v, want about the 200ms hold", d)
	}
}

// TestParkedPullClientCancel: a client that hangs up a parked pull
// leases nothing; the next job goes to the next pull.
func TestParkedPullClientCancel(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	})
	gone := registerNode(t, ts.URL, "gone")
	next := registerNode(t, ts.URL, "next")
	ch, cancel := startPull(t, ts.URL, gone)
	waitParked(t, s, 1)
	cancel()
	if r := <-ch; r.err == nil {
		t.Fatalf("cancelled pull answered %d", r.code)
	}
	waitParked(t, s, 0)

	id := uploadFig4(t, ts.URL)
	if w := pullWork(t, ts.URL, next); w.Job != id || w.Attempts != 1 {
		t.Fatalf("grant = %+v, want job %s attempt 1", w, id)
	}
	var nodes struct {
		Nodes []fleet.NodeView `json:"nodes"`
	}
	getJSON(t, ts.URL+"/v1/nodes", &nodes)
	for _, n := range nodes.Nodes {
		if n.ID == gone && n.Leased != 0 {
			t.Fatalf("node %s holds %d leases after hanging up", gone, n.Leased)
		}
	}
}

// TestParkedPullNodeLost: a node declared lost while its pull is parked
// is answered 404 at once, and leases nothing.
func TestParkedPullNodeLost(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	})
	node := registerNode(t, ts.URL, "doomed")
	ch, _ := startPull(t, ts.URL, node)
	waitParked(t, s, 1)
	s.sweep(time.Now().Add(2 * time.Hour))
	if r := awaitPull(t, ch, 5*time.Second); r.code != http.StatusNotFound {
		t.Fatalf("parked pull of a lost node = %d, want 404", r.code)
	}
	id := uploadFig4(t, ts.URL)
	var v JobView
	getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
	if v.State != string(StateQueued) || v.Attempts != 0 {
		t.Fatalf("job = %s attempts=%d, want queued and never delivered", v.State, v.Attempts)
	}
}

// TestParkedGrantReassignedWhenNodeSilent: a parked pull that is
// granted a job and whose node then goes silent is handled by the
// ordinary heartbeat path — the node is lost and the job redelivered.
func TestParkedGrantReassignedWhenNodeSilent(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: 200 * time.Millisecond,
		MaxDeliveries: 3,
	})
	silent := registerNode(t, ts.URL, "silent")
	ch, _ := startPull(t, ts.URL, silent)
	waitParked(t, s, 1)
	id := uploadFig4(t, ts.URL)
	if r := awaitPull(t, ch, 5*time.Second); r.code != http.StatusOK || r.work.Job != id {
		t.Fatalf("parked pull = %d %+v, want a grant of %s", r.code, r.work, id)
	}
	live := registerNode(t, ts.URL, "live")
	if w := pullWork(t, ts.URL, live); w.Job != id || w.Attempts != 2 {
		t.Fatalf("survivor grant = %+v, want job %s attempt 2", w, id)
	}
	if s.metrics.NodesLost.Load() != 1 {
		t.Fatalf("nodes lost = %d, want 1", s.metrics.NodesLost.Load())
	}
}

// TestShutdownWakesParkedPulls is the drain rule: Shutdown answers
// every parked pull 503 at once, and on a coordinator a job still
// queued when Shutdown begins stays queued — not leased, not failed.
func TestShutdownWakesParkedPulls(t *testing.T) {
	s := New(Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a := registerNode(t, ts.URL, "a")
	b := registerNode(t, ts.URL, "b")
	chA, _ := startPull(t, ts.URL, a)
	waitParked(t, s, 1)
	chB, _ := startPull(t, ts.URL, b)
	waitParked(t, s, 2)

	// Queue a job and begin Shutdown in one critical section, as if an
	// admission raced the drain: the woken pulls reach the table's
	// mutex only after the queue has closed.
	j := s.jobs.add("upload", "", fig4Trace(t))
	s.table.mu.Lock()
	s.table.queue = append(s.table.queue, j)
	s.table.queuedLocked()
	s.table.closeLocked()
	s.table.mu.Unlock()

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []<-chan pullResult{chA, chB} {
		if r := awaitPull(t, ch, time.Second); r.code != http.StatusServiceUnavailable {
			t.Fatalf("parked pull after Shutdown = %d, want 503", r.code)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shutdown and 503s took %v, want well under the 30m hold", d)
	}
	if j.State() != StateQueued || j.Attempts() != 0 {
		t.Fatalf("job = %s attempts=%d, want queued and never leased", j.State(), j.Attempts())
	}
	s.table.mu.Lock()
	queued := len(s.table.queue)
	leases := len(s.table.leases)
	s.table.mu.Unlock()
	if queued != 1 || leases != 0 {
		t.Fatalf("queued=%d leases=%d, want the job queued and no lease", queued, leases)
	}
	// A pull arriving after Shutdown is refused too.
	if code := fleetPost(t, ts.URL+"/v1/work/pull", fleet.PullRequest{Node: a}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("pull after Shutdown = %d, want 503", code)
	}
}

// TestQueueReofferFirst: a job whose lease was revoked returns to the
// head of the delivery order, ahead of a job admitted before the
// revocation.
func TestQueueReofferFirst(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	})
	lost := registerNode(t, ts.URL, "lost")
	first := uploadFig4(t, ts.URL)
	if w := pullWork(t, ts.URL, lost); w.Job != first {
		t.Fatalf("granted %s, want %s", w.Job, first)
	}
	second := uploadFig4(t, ts.URL)
	s.sweep(time.Now().Add(2 * time.Hour)) // "lost" is lost; first is reassigned
	live := registerNode(t, ts.URL, "live")
	if w := pullWork(t, ts.URL, live); w.Job != first || w.Attempts != 2 {
		t.Fatalf("grant = %s attempt %d, want the reassigned %s attempt 2", w.Job, w.Attempts, first)
	}
	if w := pullWork(t, ts.URL, live); w.Job != second || w.Attempts != 1 {
		t.Fatalf("grant = %s attempt %d, want %s attempt 1", w.Job, w.Attempts, second)
	}
}

// TestQueueDepthCountsReoffers: a reassigned job waits in the one job
// queue, so it counts in the queue depth and against QueueSize, and
// /v1/status reports it as pending redelivery.
func TestQueueDepthCountsReoffers(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 1, Role: RoleCoordinator,
		LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour,
	})
	node := registerNode(t, ts.URL, "lost")
	id := uploadFig4(t, ts.URL)
	if w := pullWork(t, ts.URL, node); w.Job != id {
		t.Fatalf("granted %s, want %s", w.Job, id)
	}
	s.sweep(time.Now().Add(2 * time.Hour)) // the node is lost; the job is reassigned

	var body bytes.Buffer
	if err := fig4Trace(t).Write(&body); err != nil {
		t.Fatal(err)
	}
	resp := postTraceResp(t, ts.URL+"/v1/traces", body.Bytes())
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("upload with a re-offer filling the queue = %d, want 429", resp.StatusCode)
	}
	var health struct {
		QueueDepth int64 `json:"queue_depth"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	var status StatusView
	getJSON(t, ts.URL+"/v1/status", &status)
	if health.QueueDepth != 1 || status.Queue.Depth != 1 || status.Fleet == nil || status.Fleet.Pending != 1 {
		t.Fatalf("queue_depth=%d queue.depth=%d fleet=%+v, want 1, 1 and pending 1",
			health.QueueDepth, status.Queue.Depth, status.Fleet)
	}

	// The lost node's late result wins and takes the re-offer out of
	// the queue, so the slot is free again.
	if code := fleetPost(t, ts.URL+"/v1/work/complete", okComplete(node, id), nil); code != http.StatusOK {
		t.Fatalf("late complete = %d", code)
	}
	getJSON(t, ts.URL+"/v1/status", &status)
	if status.Queue.Depth != 0 || status.Fleet.Pending != 0 {
		t.Fatalf("after the result: queue.depth=%d pending=%d, want 0 and 0", status.Queue.Depth, status.Fleet.Pending)
	}
	uploadFig4(t, ts.URL)
}

// TestShutdownStopsLocalAnalyzers: in the single role, Shutdown stops
// the in-process analyzers as soon as their in-flight work is done —
// parked pulls are refused at once and the analyzers exit instead of
// backing off for Poll (500ms) or holding for pullHold (5s).
func TestShutdownStopsLocalAnalyzers(t *testing.T) {
	s := New(Config{Workers: 3, QueueSize: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if v := pollJob(t, ts.URL, uploadFig4(t, ts.URL)); v.State != string(StateDone) {
		t.Fatalf("job = %s (%s), want done", v.State, v.Error)
	}
	waitParked(t, s, 3)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("Shutdown took %v, want the analyzers stopped well under Poll", d)
	}
	if busy := s.table.counts().busy; busy != 0 {
		t.Fatalf("workers busy after Shutdown = %d, want 0", busy)
	}
}

// TestSingleRoleLongJobRunsOnce: a single-role lease ends only by
// completion. An analysis that runs far past (MaxRenewals+1)·LeaseTTL/3,
// with a second analyzer idle beside it, is neither re-offered as a
// straggler nor expired: it runs once, with one "job started".
func TestSingleRoleLongJobRunsOnce(t *testing.T) {
	var (
		logs  syncBuffer
		calls atomic.Int32
	)
	s, ts := startServer(t, Config{
		Workers: 2, QueueSize: 4,
		LeaseTTL: 30 * time.Millisecond, HeartbeatTimeout: 40 * time.Millisecond, MaxRenewals: 1,
		JobTimeout: 5 * time.Second,
		Logger:     slog.New(slog.NewTextHandler(&logs, nil)),
		Analyze: func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
			calls.Add(1)
			time.Sleep(300 * time.Millisecond)
			return core.AnalyzeTraceCtx(ctx, tr, cfg)
		},
	})
	id := uploadFig4(t, ts.URL)
	if v := pollJob(t, ts.URL, id); v.State != string(StateDone) {
		t.Fatalf("job = %s (%s), want done", v.State, v.Error)
	}
	j, _ := s.jobs.get(id)
	if n := calls.Load(); n != 1 || j.Attempts() != 1 {
		t.Fatalf("analyses = %d, attempts = %d, want 1 and 1", n, j.Attempts())
	}
	if n := strings.Count(logs.String(), `msg="job started"`); n != 1 {
		t.Fatalf(`"job started" logged %d times, want 1:\n%s`, n, logs.String())
	}
	if n := s.Metrics().JobsReassigned.Load(); n != 0 {
		t.Fatalf("reassigned = %d, want 0", n)
	}
}

// TestFleetPickupLatency: with AnalyzerConfig.Poll at its 500ms
// default, a job uploaded to an idle fleet completes well under the
// poll — the analyzer waits at the coordinator, not in a sleep.
func TestFleetPickupLatency(t *testing.T) {
	s, ts := startServer(t, Config{
		QueueSize: 8, Role: RoleCoordinator,
		LeaseTTL: 15 * time.Second, HeartbeatTimeout: 10 * time.Second,
	})
	a := fleet.NewAnalyzer(fleet.AnalyzerConfig{Coordinator: ts.URL, Name: "idle"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	waitParked(t, s, 1)

	for i := 0; i < 3; i++ {
		start := time.Now()
		id := uploadFig4(t, ts.URL)
		for {
			j, _ := s.jobs.get(id)
			if j.terminal() {
				if j.State() != StateDone {
					t.Fatalf("job %s = %s, want done", id, j.State())
				}
				break
			}
			if time.Since(start) > 5*time.Second {
				t.Fatalf("job %s not done after 5s", id)
			}
			time.Sleep(time.Millisecond)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Fatalf("upload %d took %v to complete, want well under the 500ms poll", i, d)
		}
		waitParked(t, s, 1) // idle again: the analyzer pulled at once
	}
}

// BenchmarkSingleRoundTrip times one job through the single role with
// its default in-process analyzers: upload, lease, analysis,
// completion, until the job is done.
func BenchmarkSingleRoundTrip(b *testing.B) {
	w, _ := workloads.ByName("Figure4")
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		b.Fatal("no terminating Figure4 seed")
	}
	var body bytes.Buffer
	if err := core.Record(w.New, seed, 0).WriteBinary(&body); err != nil {
		b.Fatal(err)
	}
	s := New(Config{QueueSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		s.Shutdown(sctx)
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		var accepted struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&accepted)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("upload = %d: %v", resp.StatusCode, err)
		}
		j, _ := s.jobs.get(accepted.ID)
		for !j.terminal() {
			time.Sleep(50 * time.Microsecond)
		}
		if j.State() != StateDone {
			b.Fatalf("job %s = %s", j.ID, j.State())
		}
	}
}

// BenchmarkFleetRoundTrip times one job through a coordinator and one
// in-process analyzer at the default Poll: upload, lease, analysis,
// completion, until the job is done. The analyzer waits at the
// coordinator between jobs, so no idle sleep lands in the round trip.
func BenchmarkFleetRoundTrip(b *testing.B) {
	w, _ := workloads.ByName("Figure4")
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		b.Fatal("no terminating Figure4 seed")
	}
	var body bytes.Buffer
	if err := core.Record(w.New, seed, 0).WriteBinary(&body); err != nil {
		b.Fatal(err)
	}
	s := New(Config{QueueSize: 8, Role: RoleCoordinator})
	ts := httptest.NewServer(s.Handler())
	a := fleet.NewAnalyzer(fleet.AnalyzerConfig{Coordinator: ts.URL, Name: "bench"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	defer func() {
		cancel()
		<-done
		ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		s.Shutdown(sctx)
	}()
	for a.ID() == "" {
		time.Sleep(100 * time.Microsecond)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		var accepted struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&accepted)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("upload = %d: %v", resp.StatusCode, err)
		}
		j, _ := s.jobs.get(accepted.ID)
		for !j.terminal() {
			time.Sleep(50 * time.Microsecond)
		}
		if j.State() != StateDone {
			b.Fatalf("job %s = %s", j.ID, j.State())
		}
	}
}
