package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// legacyLine is rec as one line of a JSON-lines job journal.
func legacyLine(t *testing.T, rec JobRecord) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// checkJobReports fails unless the store holds exactly the jobs of
// want, in order, done, each with its report byte for byte.
func checkJobReports(t *testing.T, s *Store, want []JobRecord) {
	t.Helper()
	jobs := s.Jobs()
	if len(jobs) != len(want) {
		t.Fatalf("jobs = %d, want %d", len(jobs), len(want))
	}
	for i, rec := range want {
		if jobs[i].ID != rec.ID || jobs[i].State != "done" || jobs[i].Report != nil {
			t.Errorf("job %d = %s/%s with %d report bytes, want %s/done without", i, jobs[i].ID, jobs[i].State, len(jobs[i].Report), rec.ID)
		}
		got, err := s.JobReport(rec.ID)
		if err != nil || string(got) != string(rec.Report) {
			t.Errorf("report of %s: %d bytes (%v), want %d", rec.ID, len(got), err, len(rec.Report))
		}
	}
}

// TestJobLogLargeRecord: a done job whose report exceeds any line
// length a scanner would allow, and the record after it, survive a
// reopen, both in a framed journal and through the conversion of a
// JSON-lines one.
func TestJobLogLargeRecord(t *testing.T) {
	big := `{"pad":"` + strings.Repeat("x", 17<<20) + `"}`
	recs := []JobRecord{
		{ID: "j-000001", State: "done", Source: "upload", Report: json.RawMessage(`{"tool":"wolf"}`)},
		{ID: "j-000002", State: "done", Source: "upload", Report: json.RawMessage(big)},
		{ID: "j-000003", State: "done", Source: "upload", Report: json.RawMessage(`{"tool":"wolf(offline)"}`)},
	}
	t.Run("framed", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := s.AppendJob(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		checkJobReports(t, s, recs)
	})
	t.Run("legacy", func(t *testing.T) {
		dir := t.TempDir()
		var log strings.Builder
		for _, rec := range recs {
			log.WriteString(legacyLine(t, rec))
		}
		if err := os.WriteFile(filepath.Join(dir, legacyJobsFile), []byte(log.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		checkJobReports(t, s, recs)
	})
}

// TestLegacyJournalConversion: Open rewrites a JSON-lines journal as a
// framed one — the intact records with their reports and deltas, not
// the torn final line — and removes it. An Open that finds both files,
// as a crash between the conversion's rename and the removal leaves
// them, keeps the framed journal.
func TestLegacyJournalConversion(t *testing.T) {
	dir := t.TempDir()
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	fp := fakeHash(1)
	recs := []JobRecord{
		{ID: "j-000001", State: "done", Source: "upload", TraceHash: fakeHash(2), Finished: at,
			Report:  json.RawMessage(`{"tool":"wolf","cycles":[1,2]}`),
			Defects: &DefectDelta{Seq: 1, Cycles: []CycleSummary{{Fingerprint: fp, Signature: "a+b", Confirmed: true, Method: "steering"}}}},
		{Source: "workload:Figure4", Finished: at.Add(time.Second),
			Defects: &DefectDelta{Seq: 2, Cycles: []CycleSummary{{Fingerprint: fp}}}},
		{ID: "j-000002", State: "done", Source: "upload", Finished: at.Add(2 * time.Second),
			Report: json.RawMessage(`{"tool":"wolf(offline)"}`)},
	}
	var log strings.Builder
	for _, rec := range recs {
		log.WriteString(legacyLine(t, rec))
	}
	log.WriteString(`{"id":"j-000003","state":"queu`) // torn
	legacy := filepath.Join(dir, legacyJobsFile)
	if err := os.WriteFile(legacy, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Error("converted JSON-lines journal was not removed")
	}
	if frames := logFrames(t, dir); len(frames) != 3 {
		t.Errorf("framed journal = %d frames, want 3", len(frames))
	}
	want := []JobRecord{recs[0], recs[2]}
	checkJobReports(t, s, want)
	rec, ok := s.Defect(fp)
	if !ok || rec.Occurrences != 2 || rec.Class != ClassConfirmed || strings.Join(rec.Workloads, ",") != "upload,Figure4" {
		t.Errorf("defect folded from the converted deltas = %+v", rec)
	}
	s.Close()

	// The crash window: a stale JSON-lines journal beside the framed one.
	stale := legacyLine(t, JobRecord{ID: "j-000009", State: "queued", Source: "upload"})
	if err := os.WriteFile(legacy, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Error("JSON-lines journal beside a framed one was not removed")
	}
	checkJobReports(t, s, want)
}

// TestJournalReportWhileAppending: reports read at their offsets, from
// several goroutines, while other goroutines append to the journal.
func TestJournalReportWhileAppending(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	report := func(i int) string { return fmt.Sprintf(`{"tool":"wolf","job":%d}`, i) }
	for i := 1; i <= 8; i++ {
		if err := s.AppendJob(JobRecord{ID: jobID(i), State: "done", Report: json.RawMessage(report(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := s.AppendJob(JobRecord{ID: jobID(20 + w), State: "queued"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 1; i <= 8; i++ {
				if got, err := s.JobReport(jobID(i)); err != nil || string(got) != report(i) {
					t.Errorf("report of %s = %s (%v), want %s", jobID(i), got, err, report(i))
				}
			}
		}()
	}
	wg.Wait()
	if _, err := s.JobReport(jobID(20)); !errors.Is(err, ErrNotFound) {
		t.Errorf("report of a queued job: err = %v, want ErrNotFound", err)
	}
}
