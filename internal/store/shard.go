package store

// Sharded corpus layout. At the "millions of traces" scale the ROADMAP
// targets, one flat directory per kind stops working: directory lookups
// degrade, a full listing is O(corpus), and parallel scans have nothing
// to fan out over. Blobs therefore live two levels deep, bucketed by
// the first byte of their content address:
//
//	traces/ab/<sha256>.wtrc
//	defects/ab/<fp>.json
//
// with 256 shards per kind. Corpora written before sharding keep their
// files directly under traces/ and defects/; Open moves each one into
// its shard with a same-filesystem rename before it loads the index, so
// a crash at any point leaves the file wholly at one of the two paths
// and the next Open finishes the move. Everything past Open sees one
// layout.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// shardOf returns the shard bucket of a content address: its first two
// hex characters.
func shardOf(hash string) string { return hash[:2] }

// shardTracePath is the location of a trace blob.
func (s *Store) shardTracePath(hash string) string {
	return filepath.Join(s.tracesDir(), shardOf(hash), hash+traceExt)
}

// shardDefectPath is the location of a defect record.
func (s *Store) shardDefectPath(fp string) string {
	return filepath.Join(s.defectsDir(), shardOf(fp), fp+".json")
}

// shardFlatFiles moves every pre-sharding blob and defect record into
// its shard. A file already present at its sharded path (a corpus
// copied with tooling that resolved a partial move by duplicating)
// keeps the sharded copy, and the top-level one is removed. A move that
// fails fails Open: a file left behind would silently drop out of the
// corpus. Each touched directory is fsynced once, after its moves.
func (s *Store) shardFlatFiles() error {
	for _, kind := range []struct{ dir, ext string }{
		{s.tracesDir(), traceExt},
		{s.defectsDir(), ".json"},
	} {
		entries, err := os.ReadDir(kind.dir)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		touched := make(map[string]bool)
		for _, e := range entries {
			hash, ok := strings.CutSuffix(e.Name(), kind.ext)
			if e.IsDir() || !ok || !validHash(hash) {
				continue
			}
			src := filepath.Join(kind.dir, e.Name())
			dst := filepath.Join(kind.dir, shardOf(hash), e.Name())
			if _, err := os.Lstat(dst); err == nil {
				os.Remove(src) // if this fails, the next Open retries it
				continue
			}
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			if err := os.Rename(src, dst); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			touched[kind.dir] = true
			touched[filepath.Dir(dst)] = true
		}
		for dir := range touched {
			if err := s.syncs.dir(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanWorkers is the fan-out of a cold corpus scan.
func scanWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// forEachShard runs fn over every shard subdirectory name in dir on a
// worker pool. Stale ".tmp-*" files at the top level are swept here; fn
// sweeps its own shard.
func forEachShard(dir string, fn func(shard string)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	shards := make(chan string, len(entries))
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			os.Remove(filepath.Join(dir, name))
		case e.IsDir():
			shards <- name
		}
	}
	close(shards)
	var wg sync.WaitGroup
	for i := 0; i < scanWorkers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := range shards {
				fn(shard)
			}
		}()
	}
	wg.Wait()
	return nil
}

// scanTraces rebuilds the trace index from the filesystem: the cold
// path of Open, fanned out over the shard directories.
func (s *Store) scanTraces() error {
	var mu sync.Mutex
	return forEachShard(s.tracesDir(), func(shard string) {
		dir := filepath.Join(s.tracesDir(), shard)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			name := e.Name()
			if strings.HasPrefix(name, ".tmp-") {
				os.Remove(filepath.Join(dir, name))
				continue
			}
			hash, ok := strings.CutSuffix(name, traceExt)
			if !ok || !validHash(hash) || shardOf(hash) != shard {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			mu.Lock()
			s.traces.put(TraceInfo{Hash: hash, Bytes: info.Size(), ModTime: info.ModTime()})
			mu.Unlock()
		}
	})
}

// scanDefects rebuilds the defect index from the filesystem, in
// parallel per shard, with each record's delta stamp (Open then replays
// the journal past it). Unreadable or mismatched records are skipped
// rather than fatal, so one corrupt file cannot take the corpus down.
func (s *Store) scanDefects() error {
	var mu sync.Mutex
	readRecord := func(path, fp string) {
		data, err := os.ReadFile(path)
		if err != nil {
			return
		}
		rec := new(DefectRecord)
		file := defectFile{DefectRecord: rec}
		if err := json.Unmarshal(data, &file); err != nil || rec.Fingerprint != fp {
			return // corrupt record: skip, never fatal
		}
		rec.seq = file.Seq
		mu.Lock()
		s.defects[fp] = rec
		s.seq = max(s.seq, rec.seq)
		mu.Unlock()
	}
	return forEachShard(s.defectsDir(), func(shard string) {
		dir := filepath.Join(s.defectsDir(), shard)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			name := e.Name()
			if strings.HasPrefix(name, ".tmp-") {
				os.Remove(filepath.Join(dir, name))
				continue
			}
			fp, ok := strings.CutSuffix(name, ".json")
			if !ok || !validHash(fp) || shardOf(fp) != shard {
				continue
			}
			readRecord(filepath.Join(dir, name), fp)
		}
	})
}

// touchModTime is a seam for GC tests: it backdates a blob's both
// on-disk and indexed modification time.
func (s *Store) touchModTime(hash string, t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.traces.get(hash)
	if !ok {
		return
	}
	os.Chtimes(s.shardTracePath(hash), t, t)
	info.ModTime = t
	s.traces.put(info)
}
