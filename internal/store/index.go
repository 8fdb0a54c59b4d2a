package store

// The persistent index snapshot. Rebuilding the corpus index by
// scanning every shard on Open is O(corpus) — fine at thousands of
// traces, a startup-path collapse at millions. Instead the in-memory
// index (trace infos plus full defect records) is serialized to
// index.bin, written with the same tmp+fsync+rename discipline as every
// other corpus file, and a warm Open deserializes it in O(index) with
// no directory walk at all.
//
// Since version 2 the trace table is laid out as 256 per-shard
// sections of fixed-width entries behind a shard table of (count,
// bytes) pairs. A warm Open therefore only reads the file, checks the
// checksum and slices the sections — the per-shard maps materialize
// lazily on first access (see traceindex.go), which is what keeps a
// 100k-trace open in single-digit milliseconds. Shards untouched since
// load are written back verbatim on the next snapshot, so a read-mostly
// process never decodes most of the corpus at all.
//
// The defect half of the snapshot, and the defect files a full
// snapshot writes beside index.bin, are materializations of the job
// journal, whose terminal records carry every verdict's defect delta
// (jobs.go). Stamps tie them to the journal:
//
//   - A sequence stamp: the last defect delta the snapshot reflects. It
//     means "replay from here": Open folds in the journal's deltas past
//     it. Each defect file carries the same kind of stamp for itself, so
//     a scan after a crash — even one halfway through a snapshot, with
//     some defect files written and index.bin not — replays each record
//     from its own file's stamp.
//   - A files stamp: the last delta every defect file reflects. Close
//     writes index.bin alone, so files may lag; each record in the
//     snapshot carries its own sequence number, and those past the
//     files stamp are written by the next full snapshot.
//   - A generation stamp: the byte length of the jobs journal when the
//     snapshot was written. An Open that finds the journal longer or
//     shorter (a crash after more appends, or a compaction) still uses
//     the snapshot, but is not warm and writes a fresh one.
//
// Trace mutations (PutTrace, GC, DeleteTrace) are not journaled, so a
// dirty marker (index.dirty) guards the trace index: created before the
// first trace mutation after a snapshot, removed only after the next
// snapshot lands. A crash in between leaves the marker behind, and
// Open then rebuilds the trace index and re-reads the defect files with
// the parallel shard scan, the always-correct fallback.
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
	"hash/crc32"
	"os"
	"path/filepath"
)

// indexMagic and indexVersion head every index.bin.
var indexMagic = []byte("WIDX")

// Version 3 added the sequence and files stamps; an older snapshot
// fails closed into a scan.
const indexVersion = 3

// indexStamp is what a snapshot says it reflects: the journal's byte
// length, the last defect delta, and the last delta every defect file
// reflects.
type indexStamp struct {
	journal int64
	seq     int64
	files   int64
}

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// every platform wolfd targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errBadIndex is the internal "snapshot cannot be trusted" signal; the
// caller falls back to a scan, never to the user.
var errBadIndex = errors.New("store: unusable index snapshot")

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.bin") }
func (s *Store) dirtyPath() string { return filepath.Join(s.dir, "index.dirty") }

// markDirtyLocked drops the dirty marker before the first trace
// mutation following a snapshot, invalidating that snapshot's trace
// index for any Open that happens before the next one is written. One
// directory fsync per snapshot-to-snapshot window; every later mutation
// sees s.dirty and returns immediately. Caller holds s.mu.
func (s *Store) markDirtyLocked() {
	if s.dirty {
		return
	}
	// Failing to drop the marker (full disk) is tolerable: the flag still
	// flips in memory, so this process keeps snapshotting correctly; only
	// a crash in exactly this window could leave a stale trace index.
	if f, err := os.Create(s.dirtyPath()); err == nil {
		f.Close()
		s.syncs.dir(s.dir)
	}
	s.dirty = true
}

// saveIndexLocked writes the snapshot. With defects it first writes
// the defect files of the records folded since they were last written,
// each atomically, then index.bin; without, index.bin alone, which
// holds every record and marks the ones whose files lag. Then, when no
// blob write is in flight, it clears the dirty marker. In-flight writes
// (the put path releases s.mu around disk I/O) leave the marker in
// place — the snapshot is still written, but the next Open rescans
// rather than trusting state that raced a writer. Caller holds s.mu.
func (s *Store) saveIndexLocked(defects bool) error {
	if defects && s.filesSeq < s.seq {
		s.ensureDefectsLocked() // a warm load's lagging records join unsaved
		for fp := range s.unsaved {
			if err := s.writeDefect(s.defects[fp]); err != nil {
				return err
			}
		}
		clear(s.unsaved)
		s.filesSeq = s.seq
	}
	if err := s.syncs.atomicWrite(s.indexPath(), s.encodeIndexLocked()); err != nil {
		return err
	}
	if s.writing == 0 {
		os.Remove(s.dirtyPath())
		s.syncs.dir(s.dir)
		s.dirty = false
	}
	return nil
}

// SaveIndex persists a full snapshot: the defect files folded since
// they were last written, then index.bin. A long-running server may
// call it periodically so a crash close to the end of a large ingest
// does not force a full rescan.
func (s *Store) SaveIndex() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveIndexLocked(true)
}

// encodeIndexLocked serializes the index. Caller holds s.mu.
//
// Layout: magic, version byte, journal stamp varint; defect block
// (uvarint count, then per record: flags byte, uvarint length, JSON);
// the flags byte once marked pre-sharding records and is always 0;
// sequence stamp varint (the last delta the defect block reflects) and
// files stamp varint (the last delta every defect file reflects; a
// record with a later seq has a lagging file); shard table (256 x
// uvarint count, uvarint bytes); the 256 trace sections of fixed-width
// entries; CRC-32C trailer.
func (s *Store) encodeIndexLocked() []byte {
	var buf bytes.Buffer
	buf.Write(indexMagic)
	buf.WriteByte(indexVersion)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	putVarint := func(v int64) { buf.Write(tmp[:binary.PutVarint(tmp[:], v)]) }

	putVarint(s.jobs.size)

	if s.rawDefects != nil {
		// Never materialized since load: splice the block back verbatim.
		putUvarint(uint64(s.rawDefectN))
		buf.Write(s.rawDefects)
	} else {
		putUvarint(uint64(len(s.defects)))
		for _, rec := range s.defects {
			data, err := json.Marshal(defectFile{rec, rec.seq})
			if err != nil {
				continue
			}
			buf.WriteByte(0) // flags
			putUvarint(uint64(len(data)))
			buf.Write(data)
		}
	}
	putVarint(s.seq)
	putVarint(s.filesSeq)

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

// loadIndex attempts to load the snapshot, the defect block and the
// trace shards lazily, and returns its stamps. It reports false —
// leaving the store empty for the cold scan — when there is no
// snapshot, the dirty marker exists, or the payload fails validation.
func (s *Store) loadIndex() (indexStamp, bool) {
	if _, err := os.Stat(s.dirtyPath()); err == nil {
		s.dirty = true
		return indexStamp{}, false
	}
	data, err := os.ReadFile(s.indexPath())
	if err != nil {
		return indexStamp{}, false
	}
	stamp, err := s.decodeIndex(data)
	if err != nil {
		s.traces.reset()
		s.defects = make(map[string]*DefectRecord)
		s.rawDefects, s.rawDefectN = nil, 0
		return indexStamp{}, false
	}
	return stamp, true
}

// ensureDefectsLocked materializes the defect records from a lazily
// loaded snapshot block: JSON-parse every record, noting those whose
// defect files lag, then rebuild the query postings. A no-op after the first call (and always after a cold
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
		file := defectFile{DefectRecord: rec}
		// The block is checksummed and encoder-produced; a record that
		// still fails to parse is dropped rather than fatal.
		if err := json.Unmarshal(raw[off:off+int(n)], &file); err != nil || !validHash(rec.Fingerprint) {
			continue
		}
		rec.seq = file.Seq
		s.defects[rec.Fingerprint] = rec
		if rec.seq > s.filesSeq {
			s.unsaved[rec.Fingerprint] = true
		}
	}
	s.rebuildPostingsLocked()
}

// decodeIndex parses and validates one snapshot payload. The trace
// sections are only sliced, not decoded — they stay referenced from the
// read buffer until a shard materializes.
func (s *Store) decodeIndex(data []byte) (indexStamp, error) {
	var stamp indexStamp
	if len(data) < len(indexMagic)+1+4 {
		return stamp, errBadIndex
	}
	payload, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(sum) {
		return stamp, errBadIndex
	}
	if !bytes.Equal(payload[:len(indexMagic)], indexMagic) || payload[len(indexMagic)] != indexVersion {
		return stamp, errBadIndex
	}
	r := bytes.NewReader(payload[len(indexMagic)+1:])

	var err error
	if stamp.journal, err = binary.ReadVarint(r); err != nil {
		return stamp, errBadIndex
	}

	// The defect block is only frame-walked here — each record's JSON is
	// parsed on first access (ensureDefectsLocked), keeping the warm open
	// free of per-record decoding.
	nDefects, err := binary.ReadUvarint(r)
	if err != nil || nDefects > uint64(r.Len()) {
		return stamp, errBadIndex
	}
	defStart := len(payload) - r.Len()
	for i := uint64(0); i < nDefects; i++ {
		if _, err := r.ReadByte(); err != nil { // flags
			return stamp, errBadIndex
		}
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return stamp, errBadIndex
		}
		r.Seek(int64(n), 1)
	}
	s.rawDefects = payload[defStart : len(payload)-r.Len()]
	s.rawDefectN = int(nDefects)
	if stamp.seq, err = binary.ReadVarint(r); err != nil {
		return stamp, errBadIndex
	}
	if stamp.files, err = binary.ReadVarint(r); err != nil || stamp.files > stamp.seq {
		return stamp, errBadIndex
	}

	counts := make([]int, traceShards)
	for i := 0; i < traceShards; i++ {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len())/traceEntrySize {
			return stamp, errBadIndex
		}
		b, err := binary.ReadUvarint(r)
		if err != nil {
			return stamp, errBadIndex
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
			return stamp, errBadIndex
		}
		s.traces.shards[i].raw = payload[off:end]
		off = end
	}
	if off != len(payload) {
		return stamp, errBadIndex
	}
	return stamp, nil
}
