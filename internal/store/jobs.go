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
}

// jobLog is the append-only JSONL job journal. Caller (Store) serializes
// access.
type jobLog struct {
	path   string
	f      *os.File
	latest map[string]int // job ID → index in order
	order  []JobRecord    // latest record per job, first-seen order
	// replayed counts the raw records parsed at open — the journal's
	// on-disk length in records, as opposed to len(order) live jobs.
	replayed int
	// compacted marks that this open rewrote the journal (tests/stats).
	compacted bool
}

// openJobLog replays the journal, tolerating a torn tail: a crash
// mid-append can leave a final partial line, which is dropped and
// truncated away so the next append starts on a record boundary.
//
// When the replayed history exceeds twice the live job count — every
// job writes at least an admission and a terminal record, so 2× is the
// steady-state floor — the journal is compacted: rewritten atomically
// (same-directory temp file, fsync, rename) with exactly one
// latest-state line per job. A crash anywhere during compaction leaves
// either the intact original or the complete replacement, never a mix;
// an orphaned temp file is swept by the next Open.
func openJobLog(path string) (*jobLog, error) {
	jl := &jobLog{path: path, latest: make(map[string]int)}
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
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			break // torn or corrupt: drop this and everything after
		}
		jl.upsert(rec)
		jl.replayed++
		good = end
	}
	switch {
	case jl.replayed > 2*len(jl.order):
		// Compaction rewrites the whole file, which also discards any
		// torn tail without a separate truncate.
		if err := jl.compact(); err != nil {
			return nil, err
		}
	case good < int64(len(data)):
		// Repair: truncate the torn tail so future appends are clean.
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("store: repair job log: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	jl.f = f
	return jl, nil
}

// compact atomically rewrites the journal as one latest-state record
// per live job, in first-seen order. Must run before the append handle
// is opened (the handle's offset would go stale across the rename).
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
	if err := atomicWrite(jl.path, buf.Bytes()); err != nil {
		return fmt.Errorf("store: compact job log: %w", err)
	}
	jl.replayed = len(jl.order)
	jl.compacted = true
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

// append durably writes one record (fsynced) and merges it in memory.
func (jl *jobLog) append(rec JobRecord) error {
	if jl.f == nil {
		return fmt.Errorf("store: job log closed")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode job: %w", err)
	}
	data = append(data, '\n')
	if _, err := jl.f.Write(data); err != nil {
		return fmt.Errorf("store: append job: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("store: sync job log: %w", err)
	}
	jl.upsert(rec)
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
