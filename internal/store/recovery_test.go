package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// appendJobs opens a store at dir, appends n queued records and closes
// it, returning the job log path.
func appendJobs(t *testing.T, dir string, n int) string {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		rec := JobRecord{
			ID:      jobID(i),
			State:   "queued",
			Source:  "upload",
			Created: time.Date(2026, 8, 1, 0, 0, i, 0, time.UTC),
		}
		if err := s.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, jobsFile)
}

func jobID(i int) string {
	return "j-" + string(rune('0'+i/10)) + string(rune('0'+i%10)) + "0000"
}

// TestRecoveryTruncatedTail simulates a crash mid-append: the job log
// ends in a torn, partial frame. Reopening must drop exactly the torn
// frame, repair the file, and keep appending cleanly.
func TestRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := appendJobs(t, dir, 3)

	// Kill: chop the file mid-way through the final frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := logFrames(t, dir)
	if len(frames) != 3 {
		t.Fatalf("log frames = %d, want 3", len(frames))
	}
	torn := data[:frames[2].off+frames[2].size/2] // cut inside the last frame
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: the two intact records survive, the torn one is gone.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := s.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs after torn-tail reopen = %d, want 2", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != jobID(i+1) {
			t.Errorf("job %d = %s, want %s", i, j.ID, jobID(i+1))
		}
	}

	// The file itself was repaired back to a frame boundary: every byte
	// left belongs to an intact frame.
	if got := len(logFrames(t, dir)); got != 2 {
		t.Errorf("repaired log frames = %d, want 2", got)
	}

	// Appends after repair land on the boundary and survive another
	// reopen.
	if err := s.AppendJob(JobRecord{ID: "j-990000", State: "queued", Source: "upload"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs = s2.Jobs()
	if len(jobs) != 3 || jobs[2].ID != "j-990000" {
		t.Fatalf("jobs after repair+append+reopen = %+v", jobs)
	}
}

// TestRecoveryMissingNewline covers the other torn-tail shape: the final
// frame is complete but for its last byte, the checksum's (where the
// JSON-lines journal's newline was). The append path writes a frame in
// one write, so a frame short of its trailer is torn and must be
// dropped.
func TestRecoveryMissingNewline(t *testing.T) {
	dir := t.TempDir()
	path := appendJobs(t, dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Jobs()); got != 1 {
		t.Fatalf("jobs = %d, want 1 (frame without its last byte is torn)", got)
	}
}

// TestRecoveryCorruptLine: garbage in the middle of the log (torn write
// followed by a later append from a buggy run) drops the corrupt frame
// and everything after it rather than failing open.
func TestRecoveryCorruptLine(t *testing.T) {
	dir := t.TempDir()
	appendJobs(t, dir, 1)
	appendRaw(t, dir, []byte("\x00\x00\x00\x05torn garbage"))
	appendRawFrame(t, dir, JobRecord{ID: "j-020000", State: "queued", Source: "upload"})

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Jobs()); got != 1 {
		t.Fatalf("jobs = %d, want 1 (corrupt frame and successors dropped)", got)
	}
}

// TestRecoveryEmptyAndAbsentLog: a fresh directory and an empty log both
// open cleanly.
func TestRecoveryEmptyAndAbsentLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Jobs()); got != 0 {
		t.Errorf("fresh store jobs = %d", got)
	}
	s.Close()
	if err := os.Truncate(filepath.Join(dir, jobsFile), 0); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Jobs()); got != 0 {
		t.Errorf("empty-log store jobs = %d", got)
	}
}
