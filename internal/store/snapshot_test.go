package store

// Crash-recovery tests for the persistent index snapshot, extending the
// recovery_test.go kill-and-reopen pattern: whatever state a crash
// leaves index.bin and index.dirty in, reopening must converge on the
// same corpus a cold scan would build.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// snapshotOf renders the index as a comparable string: trace addresses
// and sizes plus the defect records as JSON. Trace mod-times are
// excluded — a warm open carries the put timestamp, a cold scan the
// file mtime, and the two legitimately differ by the write latency.
func snapshotOf(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	for _, info := range s.Traces() {
		fmt.Fprintf(&b, "trace %s %d\n", info.Hash, info.Bytes)
	}
	for _, rec := range s.Defects() {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "jobs %d\n", len(s.Jobs()))
	return b.String()
}

// TestWarmOpenMatchesColdScan: a clean Close leaves a snapshot; the
// next Open must be warm and identical to what a forced scan sees.
func TestWarmOpenMatchesColdScan(t *testing.T) {
	dir := t.TempDir()
	hash, _ := seedCorpus(t, dir)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm, _ := s.OpenInfo(); !warm {
		t.Fatal("open after clean close should be warm")
	}
	want := snapshotOf(t, s)
	if !s.HasTrace(hash) {
		t.Fatal("warm open lost the trace")
	}
	s.Close()

	os.Remove(filepath.Join(dir, "index.bin"))
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if warm, _ := s2.OpenInfo(); warm {
		t.Fatal("open without index.bin cannot be warm")
	}
	if got := snapshotOf(t, s2); got != want {
		t.Errorf("cold scan disagrees with warm open:\n got %s\nwant %s", got, want)
	}
}

// TestCorruptSnapshotFallsBackToScan: bit rot or a torn snapshot fails
// checksum validation and degrades to the scan, never to an error or a
// wrong index.
func TestCorruptSnapshotFallsBackToScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string) error
	}{
		{"flipped byte", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0xff
			return os.WriteFile(path, data, 0o644)
		}},
		{"truncated", func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()/2)
		}},
		{"empty", func(path string) error {
			return os.Truncate(path, 0)
		}},
		{"garbage", func(path string) error {
			return os.WriteFile(path, []byte("not a snapshot"), 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			hash, wantDefects := seedCorpus(t, dir)
			if err := tc.corrupt(filepath.Join(dir, "index.bin")); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatalf("corrupt snapshot failed open: %v", err)
			}
			defer s.Close()
			if warm, _ := s.OpenInfo(); warm {
				t.Error("corrupt snapshot served a warm open")
			}
			if !s.HasTrace(hash) || len(s.Defects()) != wantDefects {
				t.Errorf("scan fallback lost data: trace=%v defects=%d want %d",
					s.HasTrace(hash), len(s.Defects()), wantDefects)
			}
		})
	}
}

// TestDirtyMarkerForcesScan: a crash between a mutation and the next
// snapshot leaves index.dirty behind; the snapshot must not be trusted
// even though it validates.
func TestDirtyMarkerForcesScan(t *testing.T) {
	dir := t.TempDir()
	hash, _ := seedCorpus(t, dir)

	// Simulate the crash window: marker dropped, snapshot stale. Delete a
	// blob behind the snapshot's back so trusting it would be wrong.
	f, err := os.Create(filepath.Join(dir, "index.dirty"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Remove(filepath.Join(dir, "traces", hash[:2], hash+traceExt)); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if warm, _ := s.OpenInfo(); warm {
		t.Fatal("dirty marker did not force a scan")
	}
	if s.HasTrace(hash) {
		t.Error("scan resurrected a deleted blob the stale snapshot still indexed")
	}
	// The recovery open ends with a fresh snapshot and a cleared marker,
	// so the next open is warm again.
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, "index.dirty")); !os.IsNotExist(err) {
		t.Fatal("dirty marker survived a clean close")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if warm, _ := s2.OpenInfo(); !warm {
		t.Error("recovered corpus did not warm-open")
	}
}

// TestJournalGrowthInvalidatesSnapshot: the journal-size generation
// stamp catches a snapshot written before later job appends (e.g. a
// crash that lost the final snapshot but not the fsynced journal).
func TestJournalGrowthInvalidatesSnapshot(t *testing.T) {
	dir := t.TempDir()
	appendJobs(t, dir, 2) // Close wrote a snapshot stamped for 2 records

	// Simulate post-snapshot journal growth: append a record the way the
	// job log would, without touching the snapshot.
	appendRawFrame(t, dir, JobRecord{ID: "j-990000", State: "queued", Source: "upload"})

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if warm, _ := s.OpenInfo(); warm {
		t.Fatal("journal growth did not invalidate the snapshot")
	}
	if got := len(s.Jobs()); got != 3 {
		t.Errorf("jobs = %d, want 3 (appended record must be replayed)", got)
	}
}

// TestCrashDuringSnapshotWrite: a crash inside the snapshot's own
// atomicWrite leaves a temp file and the old (still stamped-valid)
// snapshot. Open sweeps the temp file; the old snapshot still matches
// the journal so it loads, and it describes the pre-crash state — which
// is exactly what the dirty-marker protocol guarantees it may.
func TestCrashDuringSnapshotWrite(t *testing.T) {
	dir := t.TempDir()
	hash, wantDefects := seedCorpus(t, dir)
	if err := os.WriteFile(filepath.Join(dir, ".tmp-snapshot"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.HasTrace(hash) || len(s.Defects()) != wantDefects {
		t.Error("corpus lost data after torn snapshot write")
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-snapshot")); !os.IsNotExist(err) {
		t.Error("torn snapshot temp file not swept")
	}
}

// TestSnapshotRoundTripsWorkloads: the snapshot must preserve the full
// defect record, including the query-layer dimensions added with it.
func TestSnapshotRoundTripsWorkloads(t *testing.T) {
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
	if _, err := s.RecordSummaries(ctx, hash, summarize(analyze(t, tr)), "workload:Figure4", time.Now()); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(s.Defects())
	if err != nil {
		t.Fatal(err)
	}
	wantN := len(s.Defects())
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if warm, _ := s2.OpenInfo(); !warm {
		t.Fatal("expected warm open")
	}
	got, err := json.Marshal(s2.Defects())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("records changed across snapshot round trip:\n got %s\nwant %s", got, want)
	}
	recs := s2.Defects()
	if len(recs) == 0 || len(recs[0].Workloads) == 0 || recs[0].Workloads[0] != "Figure4" {
		t.Errorf("workloads lost in snapshot: %+v", recs)
	}
	// And the postings rebuilt from the snapshot serve workload queries.
	res := s2.Query(QueryOptions{Workload: "Figure4"})
	if res.Total != wantN {
		t.Errorf("workload query after warm open = %d records, want %d", res.Total, wantN)
	}
}
