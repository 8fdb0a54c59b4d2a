package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/fingerprint"
	"wolf/internal/obs"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// recordedTrace records a detection trace of the named workload on the
// first terminating seed at or after from, so tests can get distinct
// traces of the same defect by advancing from.
func recordedTrace(t testing.TB, name string, from int64) (*trace.Trace, int64) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s not registered", name)
	}
	for seed := from; seed < from+300; seed++ {
		prog, opts := w.New()
		if out := sim.Run(prog, sim.NewRandomStrategy(seed), opts); out.Kind != sim.Terminated {
			continue
		}
		return core.Record(w.New, seed, 0), seed
	}
	t.Fatalf("no terminating seed for %s at or after %d", name, from)
	return nil, 0
}

func analyze(t *testing.T, tr *trace.Trace) *core.Report {
	t.Helper()
	rep, err := core.AnalyzeTraceCtx(context.Background(), tr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// summarize distills a report into the per-fingerprint summaries an
// analyzer's completion carries: refuted cycles are skipped and each
// fingerprint is summarized once, by its first cycle.
func summarize(rep *core.Report) []CycleSummary {
	seen := make(map[string]bool)
	var out []CycleSummary
	for _, cr := range rep.Cycles {
		if cr.Class.IsFalse() || cr.Cycle == nil {
			continue
		}
		fp := fingerprint.Of(cr.Cycle)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		cs := CycleSummary{Fingerprint: fp, Signature: cr.Cycle.Signature(), Edges: fingerprint.Edges(cr.Cycle)}
		if cr.Class == core.Confirmed {
			cs.Confirmed, cs.Method = true, string(cr.ReplayMethod)
		}
		out = append(out, cs)
	}
	return out
}

func TestPutTraceDedupAndRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr, _ := recordedTrace(t, "Figure4", 1)
	ctx := context.Background()
	hash, created, err := s.PutTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first put should create")
	}
	if len(hash) != 64 {
		t.Errorf("hash %q not sha256 hex", hash)
	}

	// Second put of the same trace: dedup, same address.
	hash2, created2, err := s.PutTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if created2 || hash2 != hash {
		t.Errorf("dedup put: created=%v hash match=%v", created2, hash2 == hash)
	}
	if got := s.Stats().Traces; got != 1 {
		t.Errorf("stats traces = %d, want 1", got)
	}

	got, err := s.GetTrace(hash)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(tr.Tuples) || got.Seed != tr.Seed {
		t.Errorf("round trip: %d tuples seed %d, want %d tuples seed %d",
			len(got.Tuples), got.Seed, len(tr.Tuples), tr.Seed)
	}

	// Raw blob hashes back to its own address.
	rc, size, err := s.OpenTrace(hash)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || int64(len(raw)) != size {
		t.Fatalf("blob read: %v (%d vs %d bytes)", err, len(raw), size)
	}
	wantHash, enc, err := HashTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if wantHash != hash || !bytes.Equal(raw, enc) {
		t.Error("stored blob is not the canonical encoding")
	}
}

func TestDeleteTrace(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr, _ := recordedTrace(t, "Figure4", 1)
	hash, _, err := s.PutTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteTrace(hash); err != nil {
		t.Fatal(err)
	}
	if s.HasTrace(hash) {
		t.Error("trace still indexed after delete")
	}
	if _, err := s.GetTrace(hash); err != ErrNotFound {
		t.Errorf("get after delete: %v, want ErrNotFound", err)
	}
	if err := s.DeleteTrace(hash); err != ErrNotFound {
		t.Errorf("double delete: %v, want ErrNotFound", err)
	}
}

func TestRecordAggregatesByFingerprint(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Two distinct traces of the same workload defect.
	tr1, seed1 := recordedTrace(t, "Figure4", 1)
	tr2, _ := recordedTrace(t, "Figure4", seed1+1)
	h1, _, err := s.PutTrace(ctx, tr1)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := s.PutTrace(ctx, tr2)
	if err != nil {
		t.Fatal(err)
	}

	rep1 := analyze(t, tr1)
	rep2 := analyze(t, tr2)
	if len(rep1.Cycles) == 0 || len(rep2.Cycles) == 0 {
		t.Skip("seeds produced no cycles")
	}
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(time.Hour)
	if _, err := s.RecordSummaries(ctx, h1, summarize(rep1), "workload:figure4", t0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RecordSummaries(ctx, h2, summarize(rep2), "workload:figure4", t1); err != nil {
		t.Fatal(err)
	}

	defects := s.Defects()
	if len(defects) != 1 {
		t.Fatalf("defects = %d, want 1 (same defect, two executions)", len(defects))
	}
	d := defects[0]
	if d.Occurrences != 2 {
		t.Errorf("occurrences = %d, want 2", d.Occurrences)
	}
	if !d.FirstSeen.Equal(t0) || !d.LastSeen.Equal(t1) {
		t.Errorf("seen window = %v..%v, want %v..%v", d.FirstSeen, d.LastSeen, t0, t1)
	}
	if len(d.Traces) != 2 || !containsString(d.Traces, h1) || !containsString(d.Traces, h2) {
		t.Errorf("confirming traces = %v, want both %s and %s", d.Traces, h1[:8], h2[:8])
	}
	if d.Class != "candidate" {
		t.Errorf("offline analysis class = %q, want candidate", d.Class)
	}
	if len(d.Edges) == 0 || d.Signature == "" {
		t.Error("record missing edges/signature")
	}

	// Re-recording the same trace's analysis counts another occurrence
	// but does not duplicate the trace hash.
	if _, err := s.RecordSummaries(ctx, h1, summarize(rep1), "workload:figure4", t1.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	d2, ok := s.Defect(d.Fingerprint)
	if !ok {
		t.Fatal("defect vanished")
	}
	if d2.Occurrences != 3 || len(d2.Traces) != 2 {
		t.Errorf("after re-record: occurrences=%d traces=%d, want 3 and 2", d2.Occurrences, len(d2.Traces))
	}
}

func TestRecordSkipsFalsePositives(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr, _ := recordedTrace(t, "Figure4", 1)
	rep := analyze(t, tr)
	for _, cr := range rep.Cycles {
		cr.Class = core.FalseByPruner
	}
	updated, err := s.RecordSummaries(context.Background(), "", summarize(rep), "", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(updated) != 0 || len(s.Defects()) != 0 {
		t.Error("refuted cycles must not become defect records")
	}
}

func TestReopenRebuildsIndexByScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr, _ := recordedTrace(t, "Figure4", 1)
	hash, _, err := s.PutTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, tr)
	if _, err := s.RecordSummaries(ctx, hash, summarize(rep), "upload", time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendJob(JobRecord{ID: "j-000001", State: "done", Source: "upload", TraceHash: hash}); err != nil {
		t.Fatal(err)
	}
	wantDefects := len(s.Defects())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Force the cold path: a clean Close leaves a valid index snapshot,
	// and this test is about the scan rebuilding the index from disk.
	if err := os.Remove(filepath.Join(dir, "index.bin")); err != nil {
		t.Fatal(err)
	}
	// Drop in garbage the scanner must ignore: a stale temp file and a
	// corrupt defect record.
	if err := os.WriteFile(filepath.Join(dir, "traces", ".tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	badFP := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, "defects", badFP+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.HasTrace(hash) {
		t.Error("trace lost across reopen")
	}
	if got := len(s2.Defects()); got != wantDefects {
		t.Errorf("defects after reopen = %d, want %d", got, wantDefects)
	}
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != "j-000001" || jobs[0].State != "done" {
		t.Errorf("jobs after reopen = %+v", jobs)
	}
	if _, err := os.Stat(filepath.Join(dir, "traces", ".tmp-123")); !os.IsNotExist(err) {
		t.Error("stale temp file not swept on open")
	}
}

func TestJobLogLatestRecordWins(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	now := time.Now().UTC().Truncate(time.Second)
	rep := json.RawMessage(`{"tool":"wolf(offline)"}`)
	must := func(rec JobRecord) {
		t.Helper()
		if err := s.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(JobRecord{ID: "j-000001", State: "queued", Source: "upload", Created: now})
	must(JobRecord{ID: "j-000002", State: "queued", Source: "upload", Created: now})
	must(JobRecord{ID: "j-000001", State: "done", Source: "upload", Created: now, Report: rep})

	jobs := s.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	if got, err := s.JobReport("j-000001"); jobs[0].ID != "j-000001" || jobs[0].State != "done" || err != nil || string(got) != string(rep) {
		t.Errorf("latest record did not win: %+v, report %s (%v)", jobs[0], got, err)
	}
	if jobs[1].State != "queued" {
		t.Errorf("unrelated job mutated: %+v", jobs[1])
	}
}

func TestStoreMetricsLintClean(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr, _ := recordedTrace(t, "Figure4", 1)
	if _, _, err := s.PutTrace(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		"wolfd_store_traces 1",
		"wolfd_store_trace_writes_total 1",
		"wolfd_store_put_seconds_count",
		"wolfd_corpus_traces 1",
		"wolfd_corpus_defects 0",
		"wolfd_corpus_bytes ",
		"wolfd_store_open_seconds ",
		"wolfd_store_gc_runs_total 0",
		"wolfd_store_gc_bytes_reclaimed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if errs := obs.PromLint(strings.NewReader(text)); len(errs) != 0 {
		t.Errorf("promlint: %v", errs)
	}
}

func TestPutTraceEmitsSpans(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	tr, _ := recordedTrace(t, "Figure4", 1)
	hash, _, err := s.PutTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, tr)
	if _, err := s.RecordSummaries(ctx, hash, summarize(rep), "upload", time.Now()); err != nil {
		t.Fatal(err)
	}
	if rec.Count("store.put-trace") != 1 {
		t.Error("missing store.put-trace span")
	}
	if rec.Count("store.record-defects") != 1 {
		t.Error("missing store.record-defects span")
	}
}

// TestStreamJobsShareOneWorkload: every stream job indexes under the
// door's name "stream", as uploads index under "upload", so N stream
// folds of one defect leave one workload on its record, and the
// postings work of a fold does not grow with the number of folds
// before it. Trace membership stays exact: each fold's trace is listed
// once, in first-seen order.
func TestStreamJobsShareOneWorkload(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	fp := fakeHash(7)
	at := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	const n = 100
	var perFold []int
	for i := 0; i < n; i++ {
		// Every other fold re-ships the previous trace.
		h := fakeHash(1000 + i/2)
		before := s.postings.adds
		src := fmt.Sprintf("stream:s-%06d", i+1)
		if _, err := s.RecordSummaries(ctx, h, []CycleSummary{{Fingerprint: fp, Signature: "a+b"}}, src, at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
		perFold = append(perFold, s.postings.adds-before)
	}
	rec, ok := s.Defect(fp)
	if !ok {
		t.Fatal("no defect record")
	}
	if strings.Join(rec.Workloads, ",") != "stream" {
		t.Errorf("workloads = %v, want [stream]", rec.Workloads)
	}
	if len(rec.Traces) != n/2 || rec.Traces[0] != fakeHash(1000) || rec.Traces[n/2-1] != fakeHash(1000+n/2-1) {
		t.Errorf("traces = %d, want the %d distinct ones in first-seen order", len(rec.Traces), n/2)
	}
	if got := s.Query(QueryOptions{Workload: "stream"}); got.Total != 1 {
		t.Errorf("workload=stream query matched %d records, want 1", got.Total)
	}
	if perFold[1] != perFold[n-1] {
		t.Errorf("postings added by fold 2 = %d, by fold %d = %d", perFold[1], n, perFold[n-1])
	}
}
