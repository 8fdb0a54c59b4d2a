package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// inUTC renders records with their times in UTC: a time the journal
// holds decodes in UTC, whatever zone it was written in.
func inUTC(t *testing.T, jobs []JobRecord, defects []*DefectRecord) string {
	t.Helper()
	for i := range jobs {
		j := &jobs[i]
		j.Created, j.Started, j.Finished = j.Created.UTC(), j.Started.UTC(), j.Finished.UTC()
	}
	for _, d := range defects {
		d.FirstSeen, d.LastSeen = d.FirstSeen.UTC(), d.LastSeen.UTC()
	}
	data, err := json.Marshal(struct {
		Jobs    []JobRecord
		Defects []*DefectRecord
	}{jobs, defects})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestJSONHeaderJournalConversion: a corpus written when the journal's
// frames had JSON headers (testdata/framed-corpus: done, failed and
// leased jobs, a job-less delta, reports, index.bin and two blobs; what
// that version's Open returned is in framed-corpus.golden.json) opens
// with the same jobs, byte-identical reports and the same defects. The
// conversion replaces jobs.bin with jobs.v3, the Open after the next
// Close is warm, and a crash that leaves jobs.bin beside jobs.v3
// reopens to jobs.v3 and removes jobs.bin.
func TestJSONHeaderJournalConversion(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/framed-corpus")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/framed-corpus.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Jobs    []JobRecord       `json:"jobs"`
		Reports map[string]string `json:"reports"`
		Defects []*DefectRecord   `json:"defects"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want := inUTC(t, golden.Jobs, golden.Defects)
	check := func(s *Store, when string, warm bool) {
		t.Helper()
		if got, _ := s.OpenInfo(); got != warm {
			t.Errorf("open %s: warm = %v, want %v", when, got, warm)
		}
		if got := inUTC(t, s.Jobs(), s.Defects()); got != want {
			t.Errorf("jobs and defects %s:\n got %s\nwant %s", when, got, want)
		}
		for _, rec := range golden.Jobs {
			rep, err := s.JobReport(rec.ID)
			wantRep, ok := golden.Reports[rec.ID]
			if ok && (err != nil || string(rep) != wantRep) || !ok && !errors.Is(err, ErrNotFound) {
				t.Errorf("report of %s %s = %q (%v), want %q", rec.ID, when, rep, err, wantRep)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, jsonHeaderJobsFile)); !os.IsNotExist(err) {
			t.Errorf("%s left %s behind", when, jsonHeaderJobsFile)
		}
	}
	if len(golden.Reports) != 2 || len(golden.Jobs) != 4 || len(golden.Defects) == 0 {
		t.Fatalf("golden holds %d jobs, %d reports, %d defects", len(golden.Jobs), len(golden.Reports), len(golden.Defects))
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(s, "after the conversion", false)
	converted, err := os.ReadFile(filepath.Join(dir, jobsFile))
	if err != nil {
		t.Fatal(err)
	}
	logFrames(t, dir) // every byte an intact frame
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	check(s, "after a clean reopen", true)
	s.Close()

	// The crash window: the old journal still beside the new one.
	old, err := os.ReadFile("testdata/framed-corpus/" + jsonHeaderJobsFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, jsonHeaderJobsFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s, "with jobs.bin beside jobs.v3", true)
	if now, err := os.ReadFile(filepath.Join(dir, jobsFile)); err != nil || !bytes.Equal(now, converted) {
		t.Errorf("jobs.v3 changed when jobs.bin was found beside it (%v)", err)
	}
}

// TestHeaderRoundTrip: every field of a record survives the binary
// header, times as the same instant in UTC and the zero time as the
// zero time; a header cut short or with a byte left over does not
// decode.
func TestHeaderRoundTrip(t *testing.T) {
	cest := time.FixedZone("CEST", 2*3600)
	for _, rec := range []JobRecord{
		{},
		{ID: "j-000001", State: "done", Source: "workload:Figure4", Trace: "4bf92f3577b34da6a3ce929d0e0e4736",
			TraceHash: fakeHash(3), Error: "ü<>\x00", Node: "n-0001", Attempts: 3, Tuples: 2267,
			Created: time.Date(2026, 9, 1, 10, 0, 0, 999999999, cest), Started: time.Unix(0, 0),
			Finished: time.Now()},
		{Created: time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), Finished: time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)},
	} {
		data := appendHeader(nil, &rec, 42)
		got, seq, ok := decodeHeader(data)
		if !ok || seq != 42 {
			t.Fatalf("decode %+v: ok=%v seq=%d", rec, ok, seq)
		}
		for _, tm := range []struct{ got, want time.Time }{{got.Created, rec.Created}, {got.Started, rec.Started}, {got.Finished, rec.Finished}} {
			if !tm.got.Equal(tm.want) || tm.got.IsZero() != tm.want.IsZero() || tm.got.Location() != time.UTC {
				t.Errorf("time %v decoded as %v", tm.want, tm.got)
			}
		}
		if rec.Created.IsZero() && got.Created != (time.Time{}) {
			t.Errorf("zero time decoded as %#v", got.Created)
		}
		got.Created, got.Started, got.Finished = rec.Created, rec.Started, rec.Finished
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("decoded %+v, want %+v", got, rec)
		}
		for n := 0; n < len(data); n++ {
			if _, _, ok := decodeHeader(data[:n]); ok {
				t.Errorf("header cut to %d of %d bytes decoded", n, len(data))
			}
		}
		if _, _, ok := decodeHeader(append(data, 0)); ok {
			t.Error("header with a byte left over decoded")
		}
	}
}
