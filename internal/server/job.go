package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"wolf/internal/store"
	"wolf/internal/trace"
)

// JobState is the lifecycle of one analysis job.
type JobState string

const (
	// StateQueued: accepted, waiting for an analyzer.
	StateQueued JobState = "queued"
	// StateRunning: an analyzer holds the job's lease.
	StateRunning JobState = "running"
	// StateDone: analysis finished; the report is available.
	StateDone JobState = "done"
	// StateFailed: analysis errored, timed out or panicked; Error says
	// why.
	StateFailed JobState = "failed"
)

// validState reports whether s names a job state (for the ?state list
// filter).
func validState(s string) bool {
	switch JobState(s) {
	case StateQueued, StateRunning, StateDone, StateFailed:
		return true
	}
	return false
}

// Job is one unit of analysis work: a trace (uploaded, or recorded from
// a named workload by the analyzer) plus its outcome.
//
// A job that has left the analyzer is its journal record: what it
// holds then is rec, plus the byte sections the corpus does not: its
// wire report when no journal frame holds it, and the WTRC encoding of
// its trace when no corpus blob does. With a corpus, a finished job is
// what fromRecord builds from its record after a restart.
type Job struct {
	// ID is the server-assigned job identifier.
	ID string

	mu sync.Mutex
	// rec is the job as its journal record describes it, without Report
	// and Defects.
	rec store.JobRecord
	// showLease shows the lease fields in views (coordinator role).
	// wlSeed pins a workload job's detection schedule (0: the analyzer
	// searches); both are set before the job is admitted and only read
	// after. claimed marks a result being recorded.
	showLease bool
	wlSeed    int64
	claimed   bool
	// tr is the decoded trace while the job waits or runs: set at
	// creation for uploads, once an in-process analyzer recorded it for
	// workload jobs. wtrc is its WTRC encoding, kept in its place by a
	// coordinator's grant and, once the job is terminal, whenever the
	// corpus does not hold the trace. A terminal job drops tr.
	tr   *trace.Trace
	wtrc []byte
	// report is a done job's wire report, rendered once, kept when its
	// terminal journal append did not happen (no corpus, or a failed
	// append); otherwise Store.JobReport reads it by offset.
	report json.RawMessage
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobState(j.rec.State)
}

// keptReport returns the wire report a done job keeps in memory, nil
// when the journal holds it (or the job is not done).
func (j *Job) keptReport() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// traceSource returns where the job's trace is: decoded in memory, as
// WTRC bytes, or in the corpus under hash.
func (j *Job) traceSource() (tr *trace.Trace, wtrc []byte, hash string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tr, j.wtrc, j.rec.TraceHash
}

// TraceID returns the W3C trace ID correlating the job to the request
// that created it (client-supplied via traceparent, or server-minted).
func (j *Job) TraceID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.Trace
}

// Source returns the job's provenance tag ("upload", "workload:NAME",
// ...) as submitted.
func (j *Job) Source() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.Source
}

// setTraceHash records the corpus address of the job's trace.
func (j *Job) setTraceHash(hash string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.TraceHash = hash
}

// setTrace attaches the trace an in-process analyzer recorded for a
// workload job that is still running.
func (j *Job) setTrace(tr *trace.Trace) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return
	}
	j.tr = tr
	j.rec.Tuples = len(tr.Tuples)
}

// keepWTRC replaces the decoded trace with its WTRC encoding.
func (j *Job) keepWTRC(wtrc []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.tr, j.wtrc = nil, wtrc
}

// endTrace returns the WTRC bytes the job keeps once terminal: none when
// the corpus holds its trace, else those it has or its decoded trace
// encoded now. The caller owns the job's terminal transition; the
// encoding runs outside j.mu.
func (j *Job) endTrace() []byte {
	tr, wtrc, hash := j.traceSource()
	if hash != "" {
		return nil
	}
	if wtrc == nil && tr != nil {
		var buf bytes.Buffer
		if tr.WriteBinary(&buf) == nil {
			wtrc = bytes.Clone(buf.Bytes())
		}
	}
	return wtrc
}

// finish makes the job the done record rec, whose Report is the job's
// wire report. journaled says the journal holds rec: the job then keeps
// no report bytes.
func (j *Job) finish(rec store.JobRecord, journaled bool) {
	wtrc := j.endTrace()
	j.mu.Lock()
	defer j.mu.Unlock()
	if !journaled {
		j.report = rec.Report
	}
	rec.Report, rec.Defects = nil, nil
	j.rec = rec
	j.tr, j.wtrc = nil, wtrc
}

// fail records a failed analysis.
func (j *Job) fail(msg string) {
	wtrc := j.endTrace()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.State = string(StateFailed)
	j.rec.Error = msg
	j.rec.Finished = time.Now()
	j.tr, j.wtrc = nil, wtrc
}

// CreatedAt returns the admission time.
func (j *Job) CreatedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.Created
}

// terminal reports whether the job reached done or failed.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalLocked()
}

func (j *Job) terminalLocked() bool {
	return j.rec.State == string(StateDone) || j.rec.State == string(StateFailed)
}

// claim reserves the job's outcome for one result; it reports false
// when the job is already decided.
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	won := !j.claimed && !j.terminalLocked()
	j.claimed = true
	return won
}

// Attempts returns the delivery count (coordinator role).
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.Attempts
}

// leaseTo marks the job delivered to a node at now and returns the new
// delivery count; the lease itself lives in the lease table.
func (j *Job) leaseTo(node string, now time.Time) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.State = string(StateRunning)
	if j.rec.Started.IsZero() {
		j.rec.Started = now
	}
	j.rec.Node = node
	j.rec.Attempts++
	return j.rec.Attempts
}

// unlease returns a job to queued after its lease was revoked.
func (j *Job) unlease() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.State = string(StateQueued)
	j.rec.Node = ""
}

// record snapshots the job as a corpus JobRecord, without a report: a
// done job's report reaches the journal only in its terminal record
// (doneRecord).
func (j *Job) record() store.JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// doneRecord is the record the job will have once finish flips it to
// done at now, carrying raw, its wire report. It is built first so that
// the journal holds the verdict before any reader sees done.
func (j *Job) doneRecord(raw json.RawMessage, now time.Time) store.JobRecord {
	rec := j.record()
	rec.State = string(StateDone)
	rec.Finished = now
	rec.Report = raw
	return rec
}

// JobView is the wire representation of a job's status.
type JobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Source string `json:"source"`
	// Trace is the W3C trace ID correlating this job with the request
	// that created it; filter /v1/debug/events?trace= with it.
	Trace  string `json:"trace,omitempty"`
	Tuples int    `json:"tuples,omitempty"`
	// TraceHash is the content address of the job's trace in the corpus
	// (fetch it via GET /v1/traces/{hash}); empty without -data-dir.
	TraceHash string `json:"trace_hash,omitempty"`
	Error     string `json:"error,omitempty"`
	// Node is the analyzer currently (or last) holding the job's lease;
	// Attempts counts deliveries against the redelivery budget. Both
	// are only shown in coordinator mode.
	Node     string `json:"node,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// ReportURL is set once the report can be fetched.
	ReportURL string `json:"report_url,omitempty"`
}

// view snapshots the job for JSON rendering.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := &j.rec
	v := JobView{
		ID:        j.ID,
		State:     rec.State,
		Source:    rec.Source,
		Trace:     rec.Trace,
		Tuples:    rec.Tuples,
		TraceHash: rec.TraceHash,
		Error:     rec.Error,
		Created:   rec.Created.UTC().Format(time.RFC3339Nano),
	}
	if j.showLease {
		v.Node, v.Attempts = rec.Node, rec.Attempts
	}
	if !rec.Started.IsZero() {
		v.Started = rec.Started.UTC().Format(time.RFC3339Nano)
	}
	if !rec.Finished.IsZero() {
		v.Finished = rec.Finished.UTC().Format(time.RFC3339Nano)
	}
	if rec.State == string(StateDone) {
		v.ReportURL = "/v1/jobs/" + j.ID + "/report"
	}
	return v
}

// jobStore is the in-memory job registry. With a corpus attached it is
// rehydrated from the persisted job log at startup, so the ID sequence
// continues across restarts instead of colliding with history.
type jobStore struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
	// showLease is stamped on every job: set in the coordinator role.
	showLease bool
	// order preserves creation order for listings.
	order []*Job
}

func newJobStore(showLease bool) *jobStore {
	return &jobStore{jobs: make(map[string]*Job), showLease: showLease}
}

// add registers a new job and assigns its ID. traceID is the causal
// identity propagated from the creating request.
func (s *jobStore) add(source, traceID string, tr *trace.Trace) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("j-%06d", s.seq)
	j := &Job{
		ID: id,
		rec: store.JobRecord{
			ID:      id,
			State:   string(StateQueued),
			Source:  source,
			Trace:   traceID,
			Created: time.Now(),
		},
		tr:        tr,
		showLease: s.showLease,
	}
	if tr != nil {
		j.rec.Tuples = len(tr.Tuples)
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	return j
}

// fromRecord builds the in-memory job a persisted record describes.
func fromRecord(rec store.JobRecord) *Job {
	return &Job{ID: rec.ID, rec: rec}
}

// insertRestored registers a rehydrated job and advances the ID
// sequence past it; an ID not of the form j-DIGITS leaves it as it is.
// Caller holds s.mu.
func (s *jobStore) insertRestored(j *Job) {
	if digits, ok := strings.CutPrefix(j.ID, "j-"); ok {
		if n, err := strconv.ParseUint(digits, 10, 63); err == nil && int(n) > s.seq {
			s.seq = int(n)
		}
	}
	j.showLease = s.showLease
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
}

// restore inserts a job rehydrated from a persisted record. Jobs that
// never reached a terminal state before the previous process died are
// failed: their queue position is gone. It reports whether the job's
// state changed (so the caller can persist the correction).
func (s *jobStore) restore(rec store.JobRecord) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := fromRecord(rec)
	lost := false
	if !j.terminalLocked() {
		j.rec.State = string(StateFailed)
		j.rec.Error = "job lost in wolfd restart before analysis finished"
		lost = true
	}
	s.insertRestored(j)
	return j, lost
}

// restoreQueued inserts a non-terminal rehydrated job back into the
// queued state — the coordinator path, where losing the process does
// not lose the work: the job is re-delivered to the fleet. The lease
// died with the process and is cleared; the delivery count survives so
// the redelivery budget cannot be reset by bouncing the coordinator.
func (s *jobStore) restoreQueued(rec store.JobRecord) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := fromRecord(rec)
	j.rec.State = string(StateQueued)
	j.rec.Node = ""
	s.insertRestored(j)
	return j
}

// get looks a job up by ID.
func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list snapshots, in creation order, the views of the last n jobs in
// state (in any state when it is empty), or of every such job when n is
// negative. Views are built only for the jobs returned.
func (s *jobStore) list(state string, n int) []JobView {
	s.mu.Lock()
	jobs := s.order // append-only: the entries it holds never change
	s.mu.Unlock()
	out := make([]JobView, 0)
	for i := len(jobs) - 1; i >= 0 && (n < 0 || len(out) < n); i-- {
		if state != "" && string(jobs[i].State()) != state {
			continue
		}
		// The state may move on between the two reads: the view decides.
		if v := jobs[i].view(); state == "" || v.State == state {
			out = append(out, v)
		}
	}
	slices.Reverse(out)
	return out
}
