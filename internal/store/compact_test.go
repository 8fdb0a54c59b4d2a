package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// churnJobs runs n jobs through queued → running → done, writing three
// journal records per job (one more than the 2× steady-state floor);
// each done record carries churnReport.
func churnJobs(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		for _, state := range []string{"queued", "running", "done"} {
			rec := JobRecord{
				ID:      jobID(i),
				State:   state,
				Source:  "upload",
				Created: time.Date(2026, 8, 1, 0, 0, i, 0, time.UTC),
			}
			if state == "done" {
				rec.Report = json.RawMessage(churnReport(i))
			}
			if err := s.AppendJob(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func churnReport(i int) string { return fmt.Sprintf(`{"tool":"wolf","job":%d}`, i) }

// journalFrame is one frame of the job journal, with its place in the
// file.
type journalFrame struct {
	off, size             int
	header, delta, report string
}

// logFrames splits dir's job journal into its frames, failing the test
// when any byte of the file is not part of an intact frame.
func logFrames(t testing.TB, dir string) []journalFrame {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, jobsFile))
	if err != nil {
		t.Fatal(err)
	}
	var out []journalFrame
	for off := 0; off < len(data); {
		fr, ok := nextFrame(data[off:])
		if !ok {
			t.Fatalf("journal bytes %d..%d are not an intact frame", off, len(data))
		}
		rep := data[off+int(fr.span.rep) : off+int(fr.span.rep+fr.span.repN)]
		out = append(out, journalFrame{off: off, size: int(fr.span.size),
			header: string(fr.header), delta: string(fr.delta), report: string(rep)})
		off += int(fr.span.size)
	}
	return out
}

// appendRawFrame appends the frame of rec to dir's job journal behind
// the store's back, as a crash after an fsynced append leaves it.
func appendRawFrame(t testing.TB, dir string, rec JobRecord) {
	t.Helper()
	data, _, err := encodeFrame(rec)
	if err != nil {
		t.Fatal(err)
	}
	appendRaw(t, dir, data)
}

// appendRaw appends bytes to dir's job journal.
func appendRaw(t testing.TB, dir string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, jobsFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionOnOpen: a journal holding three records per job (above
// the 2× floor) is rewritten on Open to one latest-state frame per job,
// preserving state, first-seen order and the reports at their new
// offsets.
func TestCompactionOnOpen(t *testing.T) {
	dir := t.TempDir()
	churnJobs(t, dir, 3) // 9 records, 3 live → compacts

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s.jobs.compacted {
		t.Error("journal above the 2x floor was not compacted")
	}
	if frames := logFrames(t, dir); len(frames) != 3 {
		t.Fatalf("compacted log frames = %d, want 3", len(frames))
	}
	jobs := s.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != jobID(i+1) || j.State != "done" {
			t.Errorf("job %d = %s/%s, want %s/done", i, j.ID, j.State, jobID(i+1))
		}
		if rep, err := s.JobReport(j.ID); err != nil || string(rep) != churnReport(i+1) {
			t.Errorf("report of %s after compaction = %s (%v), want %s", j.ID, rep, err, churnReport(i+1))
		}
	}

	// Appends after compaction land cleanly and survive another reopen
	// (which must not compact again: 4 records, 4 live).
	if err := s.AppendJob(JobRecord{ID: "j-990000", State: "queued", Source: "upload"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.jobs.compacted {
		t.Error("freshly compacted journal re-compacted on next open")
	}
	if got := len(s2.Jobs()); got != 4 {
		t.Fatalf("jobs after append+reopen = %d, want 4", got)
	}
}

// TestNoCompactionAtSteadyState: the normal lifecycle writes exactly two
// records per job (admission + terminal). That is the floor, not churn,
// and must never trigger a rewrite.
func TestNoCompactionAtSteadyState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		for _, state := range []string{"queued", "done"} {
			if err := s.AppendJob(JobRecord{ID: jobID(i), State: state, Source: "upload"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.jobs.compacted {
		t.Error("steady-state journal (replayed == 2x live) was compacted")
	}
	if frames := logFrames(t, dir); len(frames) != 8 {
		t.Fatalf("log frames = %d, want 8 (untouched)", len(frames))
	}
}

// TestKillDuringCompaction: a crash mid-compaction leaves the original
// journal intact plus an orphaned temp file (atomicWrite renames only
// after a complete fsynced write). The next Open must sweep the orphan
// and compact from the intact original — no records lost.
func TestKillDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	churnJobs(t, dir, 3)

	// Simulate the crash artifact: a half-written compaction temp next
	// to the journal.
	tmp := filepath.Join(dir, ".tmp-jobs-123456")
	if err := os.WriteFile(tmp, []byte(`{"id":"j-010000","state":"do`), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("orphaned compaction temp file was not swept")
	}
	jobs := s.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3 (original journal intact)", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != jobID(i+1) || j.State != "done" {
			t.Errorf("job %d = %s/%s, want %s/done", i, j.ID, j.State, jobID(i+1))
		}
	}
	if frames := logFrames(t, dir); len(frames) != 3 {
		t.Fatalf("log frames = %d, want 3 (compaction retried)", len(frames))
	}
}

// TestJobRecordFleetFieldsRoundTrip: the lease/node/attempts fields
// survive journal replay and compaction, and are omitted entirely from
// records that never touched the fleet path (single-process
// byte-compat).
func TestJobRecordFleetFieldsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	leased := JobRecord{
		ID: "j-000001", State: "running", Source: "upload",
		Node: "analyzer-1", Attempts: 2,
	}
	plain := JobRecord{ID: "j-000002", State: "queued", Source: "upload"}
	for _, rec := range []JobRecord{leased, plain} {
		if err := s.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	for _, fr := range logFrames(t, dir) {
		if strings.Contains(fr.header, `"j-000002"`) {
			for _, field := range []string{"node", "attempts"} {
				if strings.Contains(fr.header, field) {
					t.Errorf("fleet field %q leaked into a non-fleet record: %s", field, fr.header)
				}
			}
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs := s2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	got := jobs[0]
	if got.Node != "analyzer-1" || got.Attempts != 2 {
		t.Fatalf("fleet fields after replay = %q/%d", got.Node, got.Attempts)
	}
}

// TestJobRecordOldLeaseExpiryReplays: journals written before job
// records dropped lease_expiry still replay in full — the field is
// ignored, not taken for a torn tail.
func TestJobRecordOldLeaseExpiryReplays(t *testing.T) {
	dir := t.TempDir()
	old := `{"id":"j-000001","state":"running","source":"upload","node":"n-0001","attempts":1,"lease_expiry":"2026-08-08T12:00:00Z"}
{"id":"j-000002","state":"queued","source":"upload"}
`
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs := s.Jobs()
	if len(jobs) != 2 || jobs[0].Node != "n-0001" || jobs[0].Attempts != 1 {
		t.Fatalf("replayed jobs = %+v, want both records with j-000001's fleet fields", jobs)
	}
}
