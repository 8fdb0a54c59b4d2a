package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// JobRecord is one persisted snapshot of a wolfd job. The server appends
// a record at admission and again at completion; the latest record per
// ID wins on replay, so a job that never reached a terminal state is
// visibly stuck in "queued" after a restart (and the server fails it on
// rehydration).
type JobRecord struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Source string `json:"source"`
	// Trace is the W3C trace ID of the request that created the job, so
	// causal correlation survives restarts along with the job itself.
	Trace     string    `json:"trace,omitempty"`
	TraceHash string    `json:"trace_hash,omitempty"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created,omitzero"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Fleet fields (wolfd -role=coordinator): the analyzer node the job
	// was last leased to and how many times the job has been delivered.
	// Attempts survives restarts so the bounded redelivery budget cannot
	// be reset by bouncing the coordinator. (Records from older journals
	// may also carry lease_expiry; replay ignores it.)
	Node     string `json:"node,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Report is the wire-format analysis report (report.JSONReport) of a
	// done job, kept verbatim so it can be served after a restart.
	Report json.RawMessage `json:"report,omitempty"`
	// Defects is what the job folded into the defect corpus, carried by
	// its terminal record (FinishJob): this append is what makes the
	// verdict's defects durable. Only the store writes it; AppendJob
	// drops it and Jobs never returns it.
	Defects *DefectDelta `json:"defects,omitempty"`
}

// DefectDelta is one analysis's contribution to the defect corpus as
// the journal carries it. The record holding it supplies the rest of
// the fold: the trace (TraceHash), the workload (from Source) and the
// fold time (Finished). Folding the deltas in Seq order over an empty
// corpus rebuilds every defect record.
type DefectDelta struct {
	// Seq numbers the deltas in fold order. The index snapshot and every
	// defect file record the last Seq they reflect, and Open folds only
	// the deltas past it.
	Seq int64 `json:"seq"`
	// Cycles holds one summary per fingerprint the analysis touched.
	// Signature and Edges are set only on fingerprints new to the corpus.
	Cycles []CycleSummary `json:"cycles"`

	// The fold's trace, workload and time, from the carrying record.
	trace, workload string
	at              time.Time
}

// bind takes the delta's fold context from the record carrying it.
func (d *DefectDelta) bind(rec *JobRecord) *DefectDelta {
	d.trace, d.workload, d.at = rec.TraceHash, workloadFromSource(rec.Source), rec.Finished
	return d
}

// deltaRecord is the journal line of a job-less fold: a JobRecord
// without a job, carrying only the fields a delta takes its context from.
type deltaRecord struct {
	Source    string       `json:"source,omitempty"`
	TraceHash string       `json:"trace_hash,omitempty"`
	Finished  time.Time    `json:"finished"`
	Defects   *DefectDelta `json:"defects"`
}

// jobLog is the append-only JSONL job journal. Caller (Store) serializes
// access.
type jobLog struct {
	path   string
	f      *os.File
	syncs  *fsyncs
	latest map[string]int // job ID → index in order
	order  []JobRecord    // latest record per job, first-seen order
	// size is the journal's byte length as of the last read or append.
	size int64
	// replayed counts the raw records parsed at open — the journal's
	// on-disk length in records, as opposed to len(order) live jobs.
	replayed int
	// compacted marks that this open rewrote the journal (tests/stats).
	compacted bool
	// deltas are the defect deltas read at open, in journal order, until
	// Open has folded them.
	deltas []*DefectDelta
}

// readJobLog replays the journal, tolerating a torn tail: a crash
// mid-append can leave a final partial line, which is dropped and
// truncated away so the next append starts on a record boundary. A
// record with no job ID carries a job-less delta (the synchronous
// analysis path); it is counted but joins no job.
func readJobLog(path string, syncs *fsyncs) (*jobLog, error) {
	jl := &jobLog{path: path, syncs: syncs, latest: make(map[string]int)}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	good := int64(0)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	offset := int64(0)
	for sc.Scan() {
		line := sc.Bytes()
		// +1 for the newline the scanner stripped; a final line without
		// one is by definition torn (append writes the newline with the
		// record) and stays beyond `good`.
		end := offset + int64(len(line)) + 1
		offset = end
		if end > int64(len(data)) {
			break
		}
		var rec JobRecord
		if err := json.Unmarshal(line, &rec); err != nil || (rec.ID == "" && rec.Defects == nil) {
			break // torn or corrupt: drop this and everything after
		}
		if rec.Defects != nil {
			jl.deltas = append(jl.deltas, rec.Defects.bind(&rec))
			rec.Defects = nil
		}
		if rec.ID != "" {
			jl.upsert(rec)
		}
		jl.replayed++
		good = end
	}
	if good < int64(len(data)) {
		// Repair: truncate the torn tail so future appends are clean.
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("store: repair job log: %w", err)
		}
	}
	jl.size = good
	return jl, nil
}

// needsCompaction reports whether the replayed history exceeds twice
// the live job count. Every job writes at least an admission and a
// terminal record, so 2× is the steady-state floor.
func (jl *jobLog) needsCompaction() bool { return jl.replayed > 2*len(jl.order) }

// compact atomically rewrites the journal (same-directory temp file,
// fsync, rename) with exactly one latest-state record per live job, in
// first-seen order. Superseded records and job-less deltas are dropped,
// so the caller must first have made every delta durable elsewhere (a
// snapshot). A crash anywhere during compaction leaves either the
// intact original or the complete replacement, never a mix; an orphaned
// temp file is swept by the next Open. Must run before openAppend (the
// handle's offset would go stale across the rename).
func (jl *jobLog) compact() error {
	var buf bytes.Buffer
	for _, rec := range jl.order {
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: compact job log: %w", err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if err := jl.syncs.atomicWrite(jl.path, buf.Bytes()); err != nil {
		return fmt.Errorf("store: compact job log: %w", err)
	}
	jl.replayed = len(jl.order)
	jl.size = int64(buf.Len())
	jl.compacted = true
	return nil
}

// openAppend opens the append handle.
func (jl *jobLog) openAppend() error {
	f, err := os.OpenFile(jl.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	jl.f = f
	return nil
}

// upsert merges one record into the latest-per-ID view.
func (jl *jobLog) upsert(rec JobRecord) {
	if i, ok := jl.latest[rec.ID]; ok {
		jl.order[i] = rec
		return
	}
	jl.latest[rec.ID] = len(jl.order)
	jl.order = append(jl.order, rec)
}

// append durably writes one record (fsynced) and merges it in memory
// without its delta. A record without an ID is written as a
// deltaRecord.
func (jl *jobLog) append(rec JobRecord) error {
	if jl.f == nil {
		return fmt.Errorf("store: job log closed")
	}
	var data []byte
	var err error
	if rec.ID == "" {
		data, err = json.Marshal(deltaRecord{rec.Source, rec.TraceHash, rec.Finished, rec.Defects})
	} else {
		data, err = json.Marshal(rec)
	}
	if err != nil {
		return fmt.Errorf("store: encode job: %w", err)
	}
	data = append(data, '\n')
	if _, err := jl.f.Write(data); err != nil {
		return fmt.Errorf("store: append job: %w", err)
	}
	jl.size += int64(len(data))
	if err := jl.syncs.file(jl.f); err != nil {
		return fmt.Errorf("store: sync job log: %w", err)
	}
	if rec.ID != "" {
		rec.Defects = nil
		jl.upsert(rec)
	}
	return nil
}

// snapshot copies the latest record of every job, first-seen order.
func (jl *jobLog) snapshot() []JobRecord {
	return append([]JobRecord(nil), jl.order...)
}

func (jl *jobLog) len() int { return len(jl.order) }

func (jl *jobLog) close() error {
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}
