package store

// The persistent index snapshot. Rebuilding the corpus index by
// scanning every shard on Open is O(corpus) — fine at thousands of
// traces, a startup-path collapse at millions. Instead the in-memory
// index (trace infos plus full defect records) is serialized to
// index.bin, written with the same tmp+fsync+rename discipline as every
// other corpus file, and a warm Open deserializes it in O(index) with
// no directory walk at all.
//
// Version 2 lays the trace table out as 256 per-shard sections of
// fixed-width entries behind a shard table of (count, bytes) pairs.
// A warm Open therefore only reads the file, checks the checksum and
// slices the sections — the per-shard maps materialize lazily on first
// access (see traceindex.go), which is what keeps a 100k-trace open in
// single-digit milliseconds. Shards untouched since load are written
// back verbatim on the next snapshot, so a read-mostly process never
// decodes most of the corpus at all.
//
// Correctness does not depend on the snapshot: it is a cache of
// filesystem state, validated on load and discarded on any doubt, with
// the parallel shard scan as the always-correct fallback. Two guards
// decide whether a snapshot can be trusted:
//
//   - A generation stamp: the byte length of the jobs journal at the
//     moment the snapshot was written. Every wolfd mutation batch also
//     appends a job record, so a journal that grew (or was compacted)
//     since the snapshot proves the snapshot is stale.
//   - A dirty marker (index.dirty): created before the first mutation
//     after a snapshot, removed only after the next snapshot lands. A
//     crash mid-anything leaves the marker behind, forcing a cold scan.
//     This covers direct store mutations (PutTrace, GC) that do not
//     touch the journal.
//
// The payload itself carries a magic, a version and a trailing CRC-32C,
// so a torn or corrupt snapshot (crash during its own atomicWrite never
// produces one, but disks do) fails closed into a rescan. The checksum
// guards against accidental corruption, not tampering — the snapshot is
// a local cache with the same trust level as the files it indexes.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// indexMagic and indexVersion head every index.bin.
var indexMagic = []byte("WIDX")

const indexVersion = 2

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// every platform wolfd targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errBadIndex is the internal "snapshot cannot be trusted" signal; the
// caller falls back to a scan, never to the user.
var errBadIndex = errors.New("store: unusable index snapshot")

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.bin") }
func (s *Store) dirtyPath() string { return filepath.Join(s.dir, "index.dirty") }
func (s *Store) jobsPath() string  { return filepath.Join(s.dir, "jobs.jsonl") }

// journalSize is the jobs journal's current on-disk byte length — the
// snapshot generation stamp. A missing journal stamps as 0.
func (s *Store) journalSize() int64 {
	fi, err := os.Stat(s.jobsPath())
	if err != nil {
		return 0
	}
	return fi.Size()
}

// markDirtyLocked drops the dirty marker before the first mutation
// following a snapshot, invalidating that snapshot for any Open that
// happens before the next one is written. One syscall per
// snapshot-to-snapshot window; every later mutation sees s.dirty and
// returns immediately. Caller holds s.mu.
func (s *Store) markDirtyLocked() {
	if s.dirty {
		return
	}
	// Failing to drop the marker (full disk) is tolerable: the flag still
	// flips in memory, so this process keeps snapshotting correctly; only
	// a crash in exactly this window could leave a stale snapshot, and
	// the journal stamp still catches every job-creating mutation.
	if f, err := os.Create(s.dirtyPath()); err == nil {
		f.Close()
		syncDir(s.dir)
	}
	s.dirty = true
}

// saveIndexLocked atomically writes the snapshot and, when no blob
// write is in flight, clears the dirty marker. In-flight writes (the
// put path releases s.mu around disk I/O) leave the marker in place —
// the snapshot is still written, but the next Open rescans rather than
// trusting state that raced a writer. Caller holds s.mu.
func (s *Store) saveIndexLocked() error {
	data := s.encodeIndexLocked()
	if err := atomicWrite(s.indexPath(), data); err != nil {
		return err
	}
	if s.writing == 0 {
		os.Remove(s.dirtyPath())
		syncDir(s.dir)
		s.dirty = false
	}
	return nil
}

// SaveIndex persists the current index snapshot. Close calls it; a
// long-running server may also call it periodically so a crash close to
// the end of a large ingest does not force a full rescan.
func (s *Store) SaveIndex() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveIndexLocked()
}

// encodeIndexLocked serializes the index. Caller holds s.mu.
//
// Layout: magic, version byte, journal stamp varint; defect block
// (uvarint count, then per record: flags byte, uvarint length, JSON);
// the flags byte once marked pre-sharding records and is always 0;
// shard table (256 x uvarint count, uvarint bytes); the 256 trace
// sections of fixed-width entries; CRC-32C trailer.
func (s *Store) encodeIndexLocked() []byte {
	var buf bytes.Buffer
	buf.Write(indexMagic)
	buf.WriteByte(indexVersion)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	putVarint := func(v int64) { buf.Write(tmp[:binary.PutVarint(tmp[:], v)]) }

	putVarint(s.journalSize())

	if s.rawDefects != nil {
		// Never materialized since load: splice the block back verbatim.
		putUvarint(uint64(s.rawDefectN))
		buf.Write(s.rawDefects)
	} else {
		putUvarint(uint64(len(s.defects)))
		for _, rec := range s.defects {
			data, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			buf.WriteByte(0) // flags
			putUvarint(uint64(len(data)))
			buf.Write(data)
		}
	}

	// Encode mutated shards; pass raw sections through verbatim.
	sections := make([][]byte, traceShards)
	for i := range s.traces.shards {
		ts := &s.traces.shards[i]
		if ts.m == nil {
			sections[i] = ts.raw
			putUvarint(uint64(ts.rawN))
			putUvarint(uint64(ts.rawBytes))
			continue
		}
		sec := make([]byte, 0, len(ts.m)*traceEntrySize)
		var shardBytes int64
		for _, info := range ts.m {
			raw, err := hex.DecodeString(info.Hash)
			if err != nil || len(raw) != 32 {
				continue // unreachable: validHash gates every insert
			}
			sec = encodeEntry(sec, raw, info)
			shardBytes += info.Bytes
		}
		sections[i] = sec
		putUvarint(uint64(len(sec) / traceEntrySize))
		putUvarint(uint64(shardBytes))
	}
	for _, sec := range sections {
		buf.Write(sec)
	}

	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(buf.Bytes(), crcTable))
	buf.Write(sum[:])
	return buf.Bytes()
}

// loadIndex attempts a warm Open from the snapshot, populating the
// defect map eagerly and the trace shards lazily. It reports false —
// leaving the store empty for the cold scan — when there is no
// snapshot, the dirty marker exists, the generation stamp disagrees
// with the journal, or the payload fails validation. Called from Open
// before the job log is opened (journal compaction would move the
// stamp).
func (s *Store) loadIndex() bool {
	if _, err := os.Stat(s.dirtyPath()); err == nil {
		s.dirty = true
		return false
	}
	data, err := os.ReadFile(s.indexPath())
	if err != nil {
		return false
	}
	if err := s.decodeIndex(data); err != nil {
		s.traces.reset()
		s.defects = make(map[string]*DefectRecord)
		s.rawDefects, s.rawDefectN = nil, 0
		return false
	}
	return true
}

// ensureDefectsLocked materializes the defect records from a lazily
// loaded snapshot block: JSON-parse every record, then rebuild the
// query postings. A no-op after the first call (and always after a cold
// scan, which builds the map directly). Caller holds s.mu.
func (s *Store) ensureDefectsLocked() {
	if s.rawDefects == nil {
		return
	}
	raw := s.rawDefects
	s.rawDefects, s.rawDefectN = nil, 0
	r := bytes.NewReader(raw)
	for r.Len() > 0 {
		if _, err := r.ReadByte(); err != nil { // flags, ignored
			break
		}
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			break
		}
		off := len(raw) - r.Len()
		r.Seek(int64(n), 1)
		rec := new(DefectRecord)
		// The block is checksummed and encoder-produced; a record that
		// still fails to parse is dropped rather than fatal.
		if err := json.Unmarshal(raw[off:off+int(n)], rec); err != nil || !validHash(rec.Fingerprint) {
			continue
		}
		s.defects[rec.Fingerprint] = rec
	}
	s.rebuildPostingsLocked()
}

// decodeIndex parses and validates one snapshot payload. The trace
// sections are only sliced, not decoded — they stay referenced from the
// read buffer until a shard materializes.
func (s *Store) decodeIndex(data []byte) error {
	if len(data) < len(indexMagic)+1+4 {
		return errBadIndex
	}
	payload, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(sum) {
		return errBadIndex
	}
	if !bytes.Equal(payload[:len(indexMagic)], indexMagic) || payload[len(indexMagic)] != indexVersion {
		return errBadIndex
	}
	r := bytes.NewReader(payload[len(indexMagic)+1:])

	stamp, err := binary.ReadVarint(r)
	if err != nil {
		return errBadIndex
	}
	if stamp != s.journalSize() {
		return fmt.Errorf("%w: journal moved", errBadIndex)
	}

	// The defect block is only frame-walked here — each record's JSON is
	// parsed on first access (ensureDefectsLocked), keeping the warm open
	// free of per-record decoding.
	nDefects, err := binary.ReadUvarint(r)
	if err != nil || nDefects > uint64(r.Len()) {
		return errBadIndex
	}
	defStart := len(payload) - r.Len()
	for i := uint64(0); i < nDefects; i++ {
		if _, err := r.ReadByte(); err != nil { // flags
			return errBadIndex
		}
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return errBadIndex
		}
		r.Seek(int64(n), 1)
	}
	s.rawDefects = payload[defStart : len(payload)-r.Len()]
	s.rawDefectN = int(nDefects)

	counts := make([]int, traceShards)
	for i := 0; i < traceShards; i++ {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len())/traceEntrySize {
			return errBadIndex
		}
		b, err := binary.ReadUvarint(r)
		if err != nil {
			return errBadIndex
		}
		counts[i] = int(n)
		s.traces.shards[i].rawN = int(n)
		s.traces.shards[i].rawBytes = int64(b)
		s.traces.n += int(n)
		s.traces.bytes += int64(b)
	}
	off := len(payload) - r.Len()
	for i, n := range counts {
		end := off + n*traceEntrySize
		if end > len(payload) {
			return errBadIndex
		}
		s.traces.shards[i].raw = payload[off:end]
		off = end
	}
	if off != len(payload) {
		return errBadIndex
	}
	return nil
}
