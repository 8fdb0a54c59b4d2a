package store

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// flattenCorpus rewrites a sharded corpus into the pre-sharding layout:
// every blob and defect record moved up to the top of its kind
// directory, shard directories removed, index snapshot deleted — the
// exact on-disk shape an old -data-dir has.
func flattenCorpus(t testing.TB, dir string) {
	t.Helper()
	for _, kind := range []string{"traces", "defects"} {
		root := filepath.Join(dir, kind)
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			shard := filepath.Join(root, e.Name())
			files, err := os.ReadDir(shard)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if err := os.Rename(filepath.Join(shard, f.Name()), filepath.Join(root, f.Name())); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Remove(shard); err != nil {
				t.Fatal(err)
			}
		}
	}
	os.Remove(filepath.Join(dir, "index.bin"))
	os.Remove(filepath.Join(dir, "index.dirty"))
}

// seedCorpus opens a store at dir, ingests one Figure4 trace plus its
// defects, closes it, and returns the trace hash and defect count.
func seedCorpus(t *testing.T, dir string) (hash string, defects int) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr, _ := recordedTrace(t, "Figure4", 1)
	hash, _, err = s.PutTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RecordSummaries(ctx, hash, summarize(analyze(t, tr)), "workload:Figure4", time.Now()); err != nil {
		t.Fatal(err)
	}
	defects = len(s.Defects())
	if defects == 0 {
		t.Fatal("seed produced no defects")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return hash, defects
}

// TestFlatCorpusReadThrough proves an old flat-layout -data-dir keeps
// working: Open indexes the flat files and every read serves unchanged
// results.
func TestFlatCorpusReadThrough(t *testing.T) {
	dir := t.TempDir()
	hash, wantDefects := seedCorpus(t, dir)
	flattenCorpus(t, dir)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.HasTrace(hash) {
		t.Fatal("flat trace not indexed")
	}
	if _, err := s.GetTrace(hash); err != nil {
		t.Fatalf("flat trace not readable: %v", err)
	}
	if got := len(s.Defects()); got != wantDefects {
		t.Errorf("flat defects = %d, want %d", got, wantDefects)
	}
}

// topLevelFiles lists the non-directory entries directly under the
// corpus's traces/ and defects/ directories.
func topLevelFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, kind := range []string{"traces", "defects"} {
		entries, err := os.ReadDir(filepath.Join(dir, kind))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				out = append(out, filepath.Join(kind, e.Name()))
			}
		}
	}
	return out
}

// TestOpenMovesFlatLayout: Open moves every pre-sharding blob and
// defect record into its shard, and the corpus reads back whole —
// every blob, every record, every occurrence count. The interrupted
// case starts from a move cut short (half the files already in their
// shards, the index snapshot still in place), which Open finishes
// without giving up the warm load.
func TestOpenMovesFlatLayout(t *testing.T) {
	for _, interrupted := range []bool{false, true} {
		name := "flat"
		if interrupted {
			name = "interrupted"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var hashes []string
			for _, wl := range []string{"Figure4", "Figure2", "Figure9"} {
				tr, _ := recordedTrace(t, wl, 1)
				hash, _, err := s.PutTrace(ctx, tr)
				if err != nil {
					t.Fatal(err)
				}
				rep := analyze(t, tr)
				for i := 0; i < 2; i++ {
					if _, err := s.RecordSummaries(ctx, hash, summarize(rep), "workload:"+wl, time.Now()); err != nil {
						t.Fatal(err)
					}
				}
				hashes = append(hashes, hash)
			}
			want := make(map[string]int)
			for _, rec := range s.Defects() {
				want[rec.Fingerprint] = rec.Occurrences
			}
			if len(want) < 2 {
				t.Fatalf("seed produced %d defects, want at least 2", len(want))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			if interrupted {
				// Move every other file up by hand, keeping index.bin.
				for _, kind := range []string{"traces", "defects"} {
					shards, _ := filepath.Glob(filepath.Join(dir, kind, "??", "*"))
					for i, f := range shards {
						if i%2 == 0 {
							if err := os.Rename(f, filepath.Join(dir, kind, filepath.Base(f))); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			} else {
				flattenCorpus(t, dir)
			}
			if len(topLevelFiles(t, dir)) == 0 {
				t.Fatal("precondition: no file at a top-level path")
			}

			s, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if left := topLevelFiles(t, dir); len(left) != 0 {
				t.Errorf("files still at top-level paths after Open: %v", left)
			}
			if warm, _ := s.OpenInfo(); warm != interrupted {
				t.Errorf("warm open = %v, want %v", warm, interrupted)
			}
			for _, hash := range hashes {
				if _, err := s.GetTrace(hash); err != nil {
					t.Errorf("trace %s unreadable: %v", hash[:12], err)
				}
			}
			recs := s.Defects()
			if len(recs) != len(want) {
				t.Fatalf("defects = %d, want %d", len(recs), len(want))
			}
			for _, rec := range recs {
				if rec.Occurrences != want[rec.Fingerprint] {
					t.Errorf("defect %s occurrences = %d, want %d",
						rec.Fingerprint[:12], rec.Occurrences, want[rec.Fingerprint])
				}
			}
		})
	}
}

// TestCrashDuringMigrationDuplicate: tooling that resolved a partial
// migration by copying can leave a blob at both paths. The cold scan
// keeps the sharded copy and sweeps the flat one.
func TestCrashDuringMigrationDuplicate(t *testing.T) {
	dir := t.TempDir()
	hash, _ := seedCorpus(t, dir)

	sharded := filepath.Join(dir, "traces", hash[:2], hash+traceExt)
	flat := filepath.Join(dir, "traces", hash+traceExt)
	data, err := os.ReadFile(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flat, data, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "index.bin")) // force the scan

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.HasTrace(hash) {
		t.Fatal("trace lost resolving the duplicate")
	}
	if _, err := os.Stat(flat); !os.IsNotExist(err) {
		t.Error("flat duplicate not swept")
	}
	if _, err := s.GetTrace(hash); err != nil {
		t.Errorf("trace unreadable after duplicate resolution: %v", err)
	}
}

// setSnapshotFlatBits sets the pre-sharding flag of every defect record
// and trace entry in dir's index snapshot and re-seals its checksum:
// the snapshot a build that migrated lazily wrote for a flat corpus.
func setSnapshotFlatBits(t *testing.T, dir string, traces int) {
	t.Helper()
	path := filepath.Join(dir, "index.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := data[:len(data)-4]
	off := len(indexMagic) + 1
	_, n := binary.Varint(payload[off:]) // journal stamp
	off += n
	records, n := binary.Uvarint(payload[off:])
	off += n
	for i := uint64(0); i < records; i++ {
		payload[off] |= 1
		size, n := binary.Uvarint(payload[off+1:])
		off += 1 + n + int(size)
	}
	for i := 1; i <= traces; i++ {
		payload[len(payload)-i*traceEntrySize+40] |= 1
	}
	binary.BigEndian.PutUint32(data[len(data)-4:], crc32.Checksum(payload, crcTable))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStaleSnapshotFlatHint: a snapshot can mark a blob as flat while
// the disk holds it in its shard — every snapshot a lazily migrating
// build wrote for a flat corpus does, once Open has moved the files.
// The snapshot must still open warm, and reads must find the blob.
func TestStaleSnapshotFlatHint(t *testing.T) {
	dir := t.TempDir()
	hash, wantDefects := seedCorpus(t, dir)
	flattenCorpus(t, dir)

	// Cold open of the flat corpus; Close snapshots it.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	setSnapshotFlatBits(t, dir, 1)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm, _ := s2.OpenInfo()
	if !warm {
		t.Fatal("expected a warm open (snapshot should validate)")
	}
	if _, err := s2.GetTrace(hash); err != nil {
		t.Errorf("stale flat hint broke the read: %v", err)
	}
	if got := len(s2.Defects()); got != wantDefects {
		t.Errorf("defects = %d, want %d", got, wantDefects)
	}
}
