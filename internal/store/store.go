// Package store is wolfd's on-disk defect corpus: a crash-safe,
// content-addressed archive of traces plus the defect records aggregated
// over them by deadlock fingerprint (internal/fingerprint).
//
// Layout under the data directory:
//
//	traces/ab/<sha256>.wtrc  one binary-encoded trace per file, named by
//	                         the SHA-256 of its encoding (content
//	                         addressing: identical traces dedup to one
//	                         blob, and a JSON upload and its binary
//	                         re-encoding share a hash), sharded by the
//	                         first address byte (shard.go)
//	defects/ab/<fp>.json     one defect record per fingerprint, sharded
//	                         the same way, written by full snapshots
//	jobs.v3                  append-only job journal, one checksummed
//	                         frame per record with a binary header
//	                         (jobs.go); terminal records carry defect
//	                         deltas and reports
//	index.bin                persistent index snapshot (index.go)
//	index.dirty              marker: trace mutations since the last
//	                         snapshot
//
// Pre-sharding corpora with blobs directly under traces/ and defects/
// keep working: Open moves every such file into its shard before it
// loads the index (shard.go). Likewise a job journal of an earlier
// format — jobs.bin, whose frames have JSON headers, or the JSON-lines
// jobs.jsonl — is converted into jobs.v3 by the first Open that finds
// it (jobs.go); the earlier formats are only read to be converted.
//
// Crash-safety invariants:
//
//   - The job log is the durable record of defects. A verdict's defect
//     delta rides on the job's terminal record (or, on the job-less
//     synchronous path, on a record of its own), which is appended and
//     fsynced before the fold reaches memory, so a verdict is on disk
//     before any reader sees it. Nothing else on the job path writes a
//     defect.
//   - The job log is append-only and fsynced per record; a crash can
//     truncate at most the final frame. Each frame carries its lengths
//     and a CRC-32C over all its bytes, report included. Open drops the
//     first torn or corrupt frame and everything after it, truncating
//     the file back to the last intact frame before appending again.
//   - The conversion of an earlier-format job log writes jobs.v3 whole
//     with the atomic write below, then removes the earlier files; an
//     Open that finds jobs.v3 beside one (a crash in between) keeps
//     jobs.v3 and removes the other.
//   - Trace blobs, defect files and the index snapshot are written to a
//     temp file in the same directory, fsynced, then renamed into place
//     — a reader never observes a partial file, and a crash leaves at
//     most an orphaned ".tmp-*" file that the next Open sweeps.
//   - Defect files and index.bin are materializations of the journal.
//     A full snapshot writes the defect files folded since they were
//     last written, then index.bin: every snapshotEvery deltas, after an
//     Open that replayed or scanned, and before a journal compaction.
//     Close writes index.bin alone, which holds every record. Each
//     records the last delta sequence number it reflects, and Open
//     folds in the journal's deltas past it — from the snapshot's
//     number on a warm open, from each defect file's own after a scan —
//     so any crash, including one halfway through a snapshot, reopens
//     to the state the journal describes.
//   - Trace mutations are not journaled: a dirty marker guards the
//     snapshot's trace index, and on any doubt Open rebuilds the index
//     with a parallel scan of the shard directories.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wolf/internal/fingerprint"
	"wolf/internal/obs"
	"wolf/internal/trace"
)

// ErrNotFound is returned for lookups of traces or defects the corpus
// does not hold.
var ErrNotFound = errors.New("store: not found")

// ErrInvalidSummary marks a fold refused whole because a cycle summary's
// fingerprint is not a plain hex digest. FinishJob still journals the
// job's record when it returns it.
var ErrInvalidSummary = errors.New("store: invalid cycle summary")

// traceExt is the filename extension of stored trace blobs.
const traceExt = ".wtrc"

// Defect classes: the best verdict observed for a fingerprint.
const (
	ClassCandidate = "candidate"
	ClassConfirmed = "confirmed"
)

// TraceInfo describes one stored trace blob.
type TraceInfo struct {
	// Hash is the SHA-256 of the binary encoding, hex encoded — both the
	// filename and the API identifier.
	Hash string `json:"hash"`
	// Bytes is the blob size on disk.
	Bytes int64 `json:"bytes"`
	// ModTime is when the blob was stored (its file mtime) — the age GC
	// policies act on.
	ModTime time.Time `json:"mod_time"`
}

// DefectRecord is the longitudinal view of one deadlock fingerprint:
// how often it has been seen, when, in which traces, and whether replay
// ever confirmed it.
type DefectRecord struct {
	// Fingerprint is the canonical cycle identity (fingerprint.Of).
	Fingerprint string `json:"fingerprint"`
	// Signature is the paper's source-location defect signature of the
	// fingerprinted cycles.
	Signature string `json:"signature"`
	// Edges is the human-readable abstraction the fingerprint hashes.
	Edges []fingerprint.Edge `json:"edges"`
	// Class is the best verdict observed: "confirmed" once any analysis
	// reproduced the deadlock, "candidate" otherwise.
	Class string `json:"class"`
	// Method is the replay pass that confirmed it ("steering" or
	// "fallback"), empty while unconfirmed.
	Method string `json:"method,omitempty"`
	// Occurrences counts the analyses in which the fingerprint appeared.
	Occurrences int `json:"occurrences"`
	// FirstSeen and LastSeen bound the observation window.
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// Traces lists the hashes of the stored traces the fingerprint was
	// detected in, in first-seen order, deduplicated. GC never deletes a
	// blob on this list.
	Traces []string `json:"traces"`
	// Workloads lists the workload names whose recordings exhibited the
	// defect, in first-seen order, deduplicated.
	Workloads []string `json:"workloads,omitempty"`
	// Rank is the corpus triage score (scoreDefect), computed at query
	// time and never persisted.
	Rank float64 `json:"rank,omitempty"`

	// seq is the last delta folded into the record (defectFile.Seq).
	seq int64
	// inTraces holds Traces as a set, built at the record's first fold.
	inTraces map[string]bool
}

// clone deep-copies the record so callers can't mutate the index.
func (d *DefectRecord) clone() DefectRecord {
	c := *d
	c.inTraces = nil
	c.Edges = append([]fingerprint.Edge(nil), d.Edges...)
	c.Traces = append([]string(nil), d.Traces...)
	c.Workloads = append([]string(nil), d.Workloads...)
	return c
}

// Stats summarizes the corpus for logs and metrics.
type Stats struct {
	Traces     int
	TraceBytes int64
	Defects    int
	Jobs       int
}

// Store is an open corpus. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu       sync.Mutex
	traces   traceIndex
	defects  map[string]*DefectRecord
	postings *postings
	jobs     *jobLog

	// rawDefects holds the snapshot's still-encoded defect block after a
	// warm Open; ensureDefectsLocked parses it on first defect access.
	// rawDefectN is its record count (for Stats without parsing).
	rawDefects []byte
	rawDefectN int

	// seq is the last defect delta folded in, filesSeq the last one
	// every defect file reflects; unsaved holds the fingerprints whose
	// files lag, which the next full snapshot writes; nextSnapshot is
	// the seq at which the job path takes one.
	seq          int64
	filesSeq     int64
	unsaved      map[string]bool
	nextSnapshot int64

	// dirty mirrors the on-disk index.dirty marker; writing counts blob
	// writes in flight outside s.mu (they block marker clearing).
	dirty   bool
	writing int
	// inflight dedups concurrent puts of the same content address: one
	// writer per hash, followers wait on its channel.
	inflight map[string]chan struct{}

	// openSeconds and warm describe the last Open for logs and metrics.
	openSeconds float64
	warm        bool

	// Counters and latency for the wolfd_store_* metric family.
	syncs            fsyncs
	tracePuts        atomic.Int64
	traceDedups      atomic.Int64
	traceDeletes     atomic.Int64
	defectUpdates    atomic.Int64
	gcRuns           atomic.Int64
	gcBytesReclaimed atomic.Int64
	putLatency       obs.Histogram
}

// snapshotEvery is how many defect deltas the job path folds between
// snapshots. It bounds how far the defect files and index.bin trail the
// journal, and so the fold an Open after a crash replays.
const snapshotEvery = 1024

// Open opens (creating if needed) the corpus rooted at dir. When a
// valid index snapshot exists the in-memory index is loaded from it in
// O(index) — no directory walk; otherwise it is rebuilt by a parallel
// scan of the shard directories. Either way the journal's defect deltas
// that the loaded state does not reflect are folded in, and unless the
// snapshot matched the journal exactly a fresh one is written so the
// next Open is warm.
func Open(dir string) (*Store, error) {
	start := time.Now()
	s := &Store{
		dir:      dir,
		defects:  make(map[string]*DefectRecord),
		unsaved:  make(map[string]bool),
		inflight: make(map[string]chan struct{}),
	}
	for _, sub := range []string{s.tracesDir(), s.defectsDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// Sweep root-level temp files: a crash during a journal rewrite or
	// an index snapshot leaves an orphaned ".tmp-*" next to jobs.v3.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	if err := s.shardFlatFiles(); err != nil {
		return nil, err
	}
	stamp, loaded := s.loadIndex()
	s.filesSeq = stamp.files
	if !loaded {
		if err := s.scanTraces(); err != nil {
			return nil, err
		}
		if err := s.scanDefects(); err != nil {
			return nil, err
		}
		// (A warm open defers both the defect parse and the postings
		// rebuild to the first defect access — see ensureDefectsLocked.)
		s.rebuildPostingsLocked()
	}
	// After a snapshot load the deltas up to its stamp are folded
	// already: the journal decodes only those past it.
	floor := int64(0)
	if loaded {
		floor = stamp.seq
	}
	jl, err := readJobLog(dir, &s.syncs, floor)
	if err != nil {
		return nil, err
	}
	s.jobs = jl
	s.replayLocked(jl.deltas, stamp, loaded)
	jl.deltas = nil
	s.nextSnapshot = s.seq + snapshotEvery
	s.warm = loaded && stamp.journal == jl.size
	if jl.needsCompaction() {
		// Compaction drops job-less and superseded records, deltas
		// included: the snapshot first makes every delta durable in the
		// defect files. Without it the journal stays as it is.
		if s.saveIndexLocked(true) == nil {
			if err := jl.compact(); err != nil {
				return nil, err
			}
		}
	}
	jl.data = nil
	if err := jl.openAppend(); err != nil {
		return nil, err
	}
	if !s.warm || jl.compacted {
		// A scan, a replayed tail or a journal rewrite: persist a full
		// snapshot stamped against the journal as it is now, so the next
		// Open is warm.
		s.saveIndexLocked(true)
	}
	s.openSeconds = time.Since(start).Seconds()
	return s, nil
}

// replayLocked folds in the journal's deltas that the loaded state does
// not reflect: those past the snapshot's sequence number after a
// snapshot load, and per fingerprint those past its defect file's after
// a scan. Deltas fold in Seq order whatever order compaction left them
// in. Caller holds s.mu (or owns s, as Open does).
func (s *Store) replayLocked(deltas []*DefectDelta, stamp indexStamp, loaded bool) {
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].Seq < deltas[j].Seq })
	if loaded {
		s.seq = max(s.seq, stamp.seq)
	}
	for _, d := range deltas {
		s.seq = max(s.seq, d.Seq)
		if loaded && d.Seq <= stamp.seq {
			continue
		}
		for i := range d.Cycles {
			cs := &d.Cycles[i]
			if !validHash(cs.Fingerprint) {
				continue
			}
			s.ensureDefectsLocked()
			if rec, ok := s.defects[cs.Fingerprint]; ok && !loaded && rec.seq >= d.Seq {
				continue
			}
			s.applyLocked(d, cs)
		}
	}
}

// OpenInfo reports whether the last Open was served from the index
// snapshot and how long it took.
func (s *Store) OpenInfo() (warm bool, seconds float64) {
	return s.warm, s.openSeconds
}

// Close writes index.bin and releases the job log. The store must not
// be used afterwards. index.bin holds every record, so shutdown writes
// one file however much was folded; defect files that lag stay marked
// in it for the next full snapshot, and a scan replays them from the
// journal meanwhile.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saveIndexLocked(false)
	return s.jobs.close()
}

// Dir returns the corpus root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) tracesDir() string  { return filepath.Join(s.dir, "traces") }
func (s *Store) defectsDir() string { return filepath.Join(s.dir, "defects") }

// validHash reports whether name is a plausible lowercase hex digest —
// the only filenames the scanner trusts.
func validHash(name string) bool {
	if len(name) != 64 {
		return false
	}
	for _, c := range name {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encodeBufPool recycles trace-encoding buffers on the put path; at
// ingest rates the per-put buffer was the dominant allocation.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// HashTrace returns the content address a trace would be stored under.
func HashTrace(tr *trace.Trace) (string, []byte, error) {
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		return "", nil, fmt.Errorf("store: encode trace: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Bytes(), nil
}

// hashTracePooled is HashTrace on a pooled buffer; the caller must
// return the buffer to encodeBufPool when done with its bytes.
func hashTracePooled(tr *trace.Trace) (string, *bytes.Buffer, error) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := tr.WriteBinary(buf); err != nil {
		encodeBufPool.Put(buf)
		return "", nil, fmt.Errorf("store: encode trace: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf, nil
}

// PutTrace stores the trace under its content address. It reports the
// hash and whether a new blob was written; storing a trace the corpus
// already holds is a cheap no-op (dedup). Concurrent puts of the same
// content collapse to one disk write (singleflight), and the write
// itself happens outside the store lock so a slow disk does not
// serialize unrelated ingest.
func (s *Store) PutTrace(ctx context.Context, tr *trace.Trace) (hash string, created bool, err error) {
	start := time.Now()
	_, sp := obs.Start(ctx, "store.put-trace")
	defer sp.End()
	hash, buf, err := hashTracePooled(tr)
	if err != nil {
		return "", false, err
	}
	defer encodeBufPool.Put(buf)
	data := buf.Bytes()
	sp.Add("bytes", int64(len(data)))
	defer s.putLatency.ObserveSince(start)

	for {
		s.mu.Lock()
		if _, ok := s.traces.get(hash); ok {
			s.mu.Unlock()
			s.traceDedups.Add(1)
			sp.Add("dedup", 1)
			return hash, false, nil
		}
		if ch, ok := s.inflight[hash]; ok {
			// Another goroutine is writing this exact content; wait for it
			// and re-check (it may have failed — then this one retries).
			s.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		s.inflight[hash] = ch
		s.markDirtyLocked()
		s.writing++
		s.mu.Unlock()

		path := s.shardTracePath(hash)
		werr := os.MkdirAll(filepath.Dir(path), 0o755)
		if werr == nil {
			werr = s.syncs.atomicWrite(path, data)
		}

		s.mu.Lock()
		s.writing--
		delete(s.inflight, hash)
		close(ch)
		if werr != nil {
			s.mu.Unlock()
			return "", false, werr
		}
		s.traces.put(TraceInfo{Hash: hash, Bytes: int64(len(data)), ModTime: time.Now()})
		s.mu.Unlock()
		s.tracePuts.Add(1)
		return hash, true, nil
	}
}

// GetTrace loads and decodes a stored trace.
func (s *Store) GetTrace(hash string) (*trace.Trace, error) {
	rc, _, err := s.OpenTrace(hash)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	tr, err := trace.ReadBinary(rc)
	if err != nil {
		return nil, fmt.Errorf("store: trace %s: %w", fingerprint.Short(hash), err)
	}
	return tr, nil
}

// OpenTrace opens the raw blob of a stored trace for streaming, with
// its size.
func (s *Store) OpenTrace(hash string) (io.ReadCloser, int64, error) {
	s.mu.Lock()
	info, ok := s.traces.get(hash)
	s.mu.Unlock()
	if !ok {
		return nil, 0, ErrNotFound
	}
	f, err := os.Open(s.shardTracePath(hash))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, ErrNotFound
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return f, info.Bytes, nil
}

// DeleteTrace removes a stored trace blob. Defect records keep their
// dangling hash references: the observation history stays intact even
// when blobs are reclaimed.
func (s *Store) DeleteTrace(hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.traces.get(hash); !ok {
		return ErrNotFound
	}
	if err := os.Remove(s.shardTracePath(hash)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	s.markDirtyLocked()
	s.traces.del(hash)
	s.traceDeletes.Add(1)
	return nil
}

// Traces lists the stored blobs, ordered by hash.
func (s *Store) Traces() []TraceInfo {
	s.mu.Lock()
	out := make([]TraceInfo, 0, s.traces.len())
	s.traces.each(func(info TraceInfo) {
		out = append(out, info)
	})
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// HasTrace reports whether the corpus holds the blob.
func (s *Store) HasTrace(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.traces.get(hash)
	return ok
}

// CycleSummary is the defect-relevant distillation of one analyzed
// cycle: just enough to merge into a DefectRecord. An analyzer reads it
// off the cycle's entry in the wire report and ships it back in its
// completion, so its JSON form is wire format.
type CycleSummary struct {
	// Fingerprint is the canonical cycle identity (fingerprint.Of).
	Fingerprint string `json:"fingerprint"`
	// Signature is the paper's source-location defect signature.
	Signature string `json:"signature"`
	// Edges is the human-readable abstraction the fingerprint hashes.
	Edges []fingerprint.Edge `json:"edges"`
	// Confirmed reports whether replay reproduced the deadlock; Method
	// names the confirming pass ("steering" or "fallback") when it did.
	Confirmed bool   `json:"confirmed,omitempty"`
	Method    string `json:"method,omitempty"`
}

// RecordSummaries folds one analysis's cycle summaries into the defect
// corpus without a job, journaled as a record of its own before it
// returns, and reports the fingerprints it touched. source tags the
// defects with the workload that produced the trace ("workload:NAME" or
// a bare name; empty adds nothing). Fingerprints are untrusted wire
// input that become filenames: a call with any that is not a plain hex
// digest is rejected whole. Duplicates collapse, first wins, so one
// analysis adds at most one occurrence per fingerprint.
func (s *Store) RecordSummaries(ctx context.Context, traceHash string, sums []CycleSummary, source string, now time.Time) ([]string, error) {
	return s.fold(ctx, JobRecord{TraceHash: traceHash, Source: source, Finished: now}, sums)
}

// FinishJob appends rec, a job's terminal record, carrying the defect
// delta of sums, a completion's cycle summaries, validated as
// RecordSummaries validates them, folded with rec.TraceHash as the
// trace, rec.Source as the source and rec.Finished as the time. That
// one fsynced append is the verdict's durable write; the fold into the
// in-memory corpus follows it, so once FinishJob returns, readers see
// the defects and a crash keeps them. When a summary is invalid no
// defect changes, rec is still appended (without a delta) and an
// ErrInvalidSummary is returned.
func (s *Store) FinishJob(ctx context.Context, rec JobRecord, sums []CycleSummary) ([]string, error) {
	if rec.ID == "" {
		return nil, fmt.Errorf("store: job record without an ID")
	}
	return s.fold(ctx, rec, sums)
}

// fold validates sums, journals rec with their delta — rec without an ID
// journals the delta alone, and only when there is one — and applies
// the delta in memory.
func (s *Store) fold(ctx context.Context, rec JobRecord, sums []CycleSummary) ([]string, error) {
	_, sp := obs.Start(ctx, "store.record-defects")
	defer sp.End()

	var invalid error
	seen := make(map[string]bool, len(sums))
	uniq := make([]CycleSummary, 0, len(sums))
	for _, cs := range sums {
		if !validHash(cs.Fingerprint) {
			invalid = fmt.Errorf("%w: fingerprint %q", ErrInvalidSummary, cs.Fingerprint)
			uniq = nil
			break
		}
		if !seen[cs.Fingerprint] {
			seen[cs.Fingerprint] = true
			uniq = append(uniq, cs)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Defects = nil
	if len(uniq) > 0 {
		s.ensureDefectsLocked()
		d := &DefectDelta{Seq: s.seq + 1, Cycles: make([]CycleSummary, len(uniq))}
		for i, cs := range uniq {
			c := CycleSummary{Fingerprint: cs.Fingerprint, Confirmed: cs.Confirmed, Method: cs.Method}
			if _, ok := s.defects[cs.Fingerprint]; !ok {
				c.Signature, c.Edges = cs.Signature, cs.Edges
			}
			d.Cycles[i] = c
		}
		rec.Defects = d.bind(&rec)
	}
	if rec.ID != "" || rec.Defects != nil {
		if err := s.jobs.append(rec); err != nil {
			return nil, err
		}
	}
	if rec.Defects == nil {
		return nil, invalid
	}
	d := rec.Defects
	s.seq = d.Seq
	updated := make([]string, len(d.Cycles))
	for i := range d.Cycles {
		s.applyLocked(d, &d.Cycles[i])
		updated[i] = d.Cycles[i].Fingerprint
	}
	s.defectUpdates.Add(int64(len(updated)))
	sp.Add("updated", int64(len(updated)))
	if s.seq >= s.nextSnapshot {
		// Off the common path: one job in snapshotEvery pays for the
		// snapshot; a failure is retried snapshotEvery deltas later.
		s.nextSnapshot = s.seq + snapshotEvery
		s.saveIndexLocked(true)
	}
	return updated, nil
}

// applyLocked folds one summary of delta d into its defect record: one
// occurrence, the first confirming method, and the trace and workload in
// first-seen order. Caller holds s.mu.
func (s *Store) applyLocked(d *DefectDelta, cs *CycleSummary) {
	rec, ok := s.defects[cs.Fingerprint]
	if !ok {
		rec = &DefectRecord{
			Fingerprint: cs.Fingerprint,
			Signature:   cs.Signature,
			Edges:       append([]fingerprint.Edge(nil), cs.Edges...),
			Class:       ClassCandidate,
			FirstSeen:   d.at,
		}
		s.defects[cs.Fingerprint] = rec
	}
	rec.Occurrences++
	rec.LastSeen = d.at
	if cs.Confirmed {
		rec.Class = ClassConfirmed
		if rec.Method == "" {
			rec.Method = cs.Method
		}
	}
	if d.trace != "" {
		if rec.inTraces == nil {
			rec.inTraces = make(map[string]bool, len(rec.Traces)+1)
			for _, h := range rec.Traces {
				rec.inTraces[h] = true
			}
		}
		if !rec.inTraces[d.trace] {
			rec.inTraces[d.trace] = true
			rec.Traces = append(rec.Traces, d.trace)
		}
	}
	if d.workload != "" && !containsString(rec.Workloads, d.workload) {
		rec.Workloads = append(rec.Workloads, d.workload)
		if ok { // a new record's workloads are posted with it below
			s.postings.add(s.postings.workload, d.workload, rec.Fingerprint)
		}
	}
	rec.seq = d.Seq
	s.unsaved[cs.Fingerprint] = true
	s.indexDefectLocked(rec, !ok)
}

// defectFile is a defect record as the snapshot writes it under
// defects/: the record plus the sequence number of the last delta
// folded into it, from which a scanning Open replays the journal.
// Files from before the journal carried deltas have none (0).
type defectFile struct {
	*DefectRecord
	Seq int64 `json:"seq,omitempty"`
}

// writeDefect persists one record atomically at its sharded path.
// Caller holds s.mu.
func (s *Store) writeDefect(rec *DefectRecord) error {
	data, err := json.MarshalIndent(defectFile{rec, rec.seq}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode defect: %w", err)
	}
	path := s.shardDefectPath(rec.Fingerprint)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.syncs.atomicWrite(path, append(data, '\n'))
}

// Defects lists the defect records, most occurrences first (fingerprint
// as tiebreak for determinism).
func (s *Store) Defects() []*DefectRecord {
	s.mu.Lock()
	s.ensureDefectsLocked()
	out := make([]*DefectRecord, 0, len(s.defects))
	for _, rec := range s.defects {
		c := rec.clone()
		out = append(out, &c)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Occurrences != out[j].Occurrences {
			return out[i].Occurrences > out[j].Occurrences
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Defect looks one record up by full fingerprint.
func (s *Store) Defect(fp string) (*DefectRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureDefectsLocked()
	rec, ok := s.defects[fp]
	if !ok {
		return nil, false
	}
	c := rec.clone()
	return &c, true
}

// AppendJob durably appends one job record to the log. A record's
// defect delta is the store's to write (FinishJob); one passed here is
// dropped.
func (s *Store) AppendJob(rec JobRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("store: job record without an ID")
	}
	rec.Defects = nil
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs.append(rec)
}

// Jobs returns the latest persisted record of every job, in first-seen
// order, without its report (see JobReport).
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs.snapshot()
}

// JobReport returns the wire report the latest record of job id
// carries, read from the journal at its offset. It returns ErrNotFound
// when the store holds no such job or its latest record has no report.
func (s *Store) JobReport(id string) (json.RawMessage, error) {
	s.mu.Lock()
	f, sp, ok := s.jobs.reportAt(id)
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	// Frames never move once Open returns (only Open compacts), so the
	// read needs no lock.
	buf := make([]byte, sp.repN)
	if _, err := f.ReadAt(buf, sp.rep); err != nil {
		return nil, fmt.Errorf("store: read report of job %s: %w", id, err)
	}
	return buf, nil
}

// Stats summarizes the corpus.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	defects := len(s.defects)
	if s.rawDefects != nil {
		defects = s.rawDefectN
	}
	return Stats{
		Traces:     s.traces.len(),
		TraceBytes: s.traces.totalBytes(),
		Defects:    defects,
		Jobs:       s.jobs.len(),
	}
}

// WritePrometheus renders the wolfd_store_* and wolfd_corpus_* metric
// families in Prometheus text exposition format: corpus gauges,
// operation counters, startup cost and the trace-write latency
// histogram.
func (s *Store) WritePrometheus(w io.Writer) {
	st := s.Stats()
	s.mu.Lock()
	openSeconds := s.openSeconds
	s.mu.Unlock()
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("wolfd_store_traces", "Trace blobs in the corpus.", int64(st.Traces))
	gauge("wolfd_store_trace_bytes", "Total bytes of stored trace blobs.", st.TraceBytes)
	gauge("wolfd_store_defects", "Defect records in the corpus.", int64(st.Defects))
	gauge("wolfd_store_jobs", "Jobs in the persisted job log.", int64(st.Jobs))
	gauge("wolfd_corpus_traces", "Trace blobs in the corpus (corpus view).", int64(st.Traces))
	gauge("wolfd_corpus_defects", "Defect records in the corpus (corpus view).", int64(st.Defects))
	gauge("wolfd_corpus_bytes", "Total bytes of stored trace blobs (corpus view).", st.TraceBytes)
	fmt.Fprintf(w, "# HELP wolfd_store_open_seconds Duration of the last corpus Open.\n# TYPE wolfd_store_open_seconds gauge\nwolfd_store_open_seconds %g\n", openSeconds)
	counter("wolfd_store_trace_writes_total", "New trace blobs written.", s.tracePuts.Load())
	counter("wolfd_store_trace_dedup_total", "Trace puts deduplicated by content address.", s.traceDedups.Load())
	counter("wolfd_store_trace_deletes_total", "Trace blobs deleted.", s.traceDeletes.Load())
	counter("wolfd_store_defect_updates_total", "Defect record updates folded in (journaled).", s.defectUpdates.Load())
	counter("wolfd_store_fsyncs_total", "Fsyncs the store issued, of files and of directories.", s.syncs.n.Load())
	counter("wolfd_store_gc_runs_total", "Trace GC passes completed.", s.gcRuns.Load())
	counter("wolfd_store_gc_bytes_reclaimed_total", "Trace bytes reclaimed by GC.", s.gcBytesReclaimed.Load())
	s.putLatency.WritePrometheus(w, "wolfd_store_put_seconds", "Trace put latency (including dedup hits).", "")
}

// fsyncs issues a store's fsyncs and counts them
// (wolfd_store_fsyncs_total).
type fsyncs struct{ n atomic.Int64 }

// file fsyncs an open file.
func (c *fsyncs) file(f *os.File) error {
	c.n.Add(1)
	return f.Sync()
}

// dir fsyncs a directory so a rename or create in it survives a crash.
func (c *fsyncs) dir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := c.file(d); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// atomicWrite writes data to path via a same-directory temp file, fsync
// and rename, so concurrent readers and crashes never observe a partial
// file: two fsyncs, the file's and its directory's.
func (c *fsyncs) atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := c.file(f); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return c.dir(dir)
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
