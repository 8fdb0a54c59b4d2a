package server

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"wolf/internal/core"
	"wolf/internal/report"
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
type Job struct {
	// ID is the server-assigned job identifier.
	ID string

	mu        sync.Mutex
	state     JobState
	err       string
	source    string
	trace     string
	tuples    int
	created   time.Time
	started   time.Time
	finished  time.Time
	tr        *trace.Trace
	traceHash string
	// The node holding the job's lease and the delivery count, shown
	// only when showLease (coordinator role). wlSeed pins a workload
	// job's detection schedule. claimed marks a result being recorded.
	node      string
	attempts  int
	showLease bool
	wlSeed    int64
	claimed   bool
	report    *core.Report
	// reportJSON is the wire report a remote analyzer delivered
	// (remote); the report endpoint serves it verbatim. A job rehydrated
	// from the corpus holds neither report: its wire report stays in
	// the journal (store.JobReport).
	reportJSON json.RawMessage
	remote     bool
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Report returns the analysis report, nil until the job is done (and
// nil for jobs a remote analyzer ran or rehydrated from the corpus).
func (j *Job) Report() *core.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.report
}

// ReportJSON returns the wire report a remote analyzer delivered, nil
// otherwise.
func (j *Job) ReportJSON() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.reportJSON
}

// Trace returns the job's trace: set at creation for uploads, once an
// in-process analyzer recorded it for workload jobs, nil before that
// (and nil after a restart — the blob lives in the corpus under
// TraceHash).
func (j *Job) Trace() *trace.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tr
}

// TraceID returns the W3C trace ID correlating the job to the request
// that created it (client-supplied via traceparent, or server-minted).
func (j *Job) TraceID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Source returns the job's provenance tag ("upload", "workload:NAME",
// ...) as submitted.
func (j *Job) Source() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.source
}

// TraceHash returns the content address of the job's trace in the
// corpus, empty when the server runs without one.
func (j *Job) TraceHash() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceHash
}

// setTraceHash records the corpus address of the job's trace.
func (j *Job) setTraceHash(hash string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.traceHash = hash
}

// setTrace attaches the trace an in-process analyzer recorded for a
// workload job.
func (j *Job) setTrace(tr *trace.Trace) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.tr = tr
	j.tuples = len(tr.Tuples)
}

// finish records a successful analysis finished at now and returns its
// time since the first lease.
func (j *Job) finish(rep *core.Report, now time.Time) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.report = rep
	j.finished = now
	return j.finished.Sub(j.started)
}

// fail records a failed analysis.
func (j *Job) fail(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateFailed
	j.err = msg
	j.finished = time.Now()
}

// CreatedAt returns the admission time.
func (j *Job) CreatedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created
}

// terminal reports whether the job reached done or failed.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
}

// claim reserves the job's outcome for one result; it reports false
// when the job is already decided.
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	won := !j.claimed && j.state != StateDone && j.state != StateFailed
	j.claimed = true
	return won
}

// Attempts returns the delivery count (coordinator role).
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// WorkloadSeed returns the pinned detection seed of a workload job (0
// means the analyzer searches).
func (j *Job) WorkloadSeed() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wlSeed
}

// setWorkloadSeed records the requested detection seed.
func (j *Job) setWorkloadSeed(seed int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.wlSeed = seed
}

// leaseTo marks the job delivered to a node at now and returns the new
// delivery count; the lease itself lives in the lease table.
func (j *Job) leaseTo(node string, now time.Time) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	if j.started.IsZero() {
		j.started = now
	}
	j.node = node
	j.attempts++
	return j.attempts
}

// unlease returns a job to queued after its lease was revoked.
func (j *Job) unlease() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateQueued
	j.node = ""
}

// finishRaw records a successful remote analysis, finished at now, by
// its wire-format report; the report endpoint serves it verbatim.
func (j *Job) finishRaw(raw json.RawMessage, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.reportJSON = raw
	j.remote = true
	j.finished = now
}

// ranRemote reports whether a remote analyzer delivered the job's
// result in this process, so its in-memory report never existed here.
func (j *Job) ranRemote() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.remote
}

// record snapshots the job as a corpus JobRecord. The report is
// marshaled into its wire form for done jobs so a restarted server can
// serve it verbatim.
func (j *Job) record() store.JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := store.JobRecord{
		ID:        j.ID,
		State:     string(j.state),
		Source:    j.source,
		Trace:     j.trace,
		TraceHash: j.traceHash,
		Error:     j.err,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		Node:      j.node,
		Attempts:  j.attempts,
	}
	if j.state == StateDone {
		rec.Report = wireReport(j.report, j.reportJSON)
	}
	return rec
}

// doneRecord is the record the job will have once finish(rep, now) or
// finishRaw(raw, now) flips it to done. It is built first so that the
// journal holds the verdict before any reader sees done.
func (j *Job) doneRecord(rep *core.Report, raw json.RawMessage, now time.Time) store.JobRecord {
	rec := j.record()
	rec.State = string(StateDone)
	rec.Finished = now
	rec.Report = wireReport(rep, raw)
	return rec
}

// wireReport is a done job's report in its persisted wire form.
func wireReport(rep *core.Report, raw json.RawMessage) json.RawMessage {
	if rep == nil {
		return raw
	}
	data, err := json.Marshal(report.FromCore(rep))
	if err != nil {
		return nil
	}
	return data
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
	v := JobView{
		ID:        j.ID,
		State:     string(j.state),
		Source:    j.source,
		Trace:     j.trace,
		Tuples:    j.tuples,
		TraceHash: j.traceHash,
		Error:     j.err,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.showLease {
		v.Node, v.Attempts = j.node, j.attempts
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.state == StateDone {
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
	j := &Job{
		ID:        fmt.Sprintf("j-%06d", s.seq),
		state:     StateQueued,
		source:    source,
		trace:     traceID,
		created:   time.Now(),
		tr:        tr,
		showLease: s.showLease,
	}
	if tr != nil {
		j.tuples = len(tr.Tuples)
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	return j
}

// fromRecord builds the in-memory job a persisted record describes.
func fromRecord(rec store.JobRecord) *Job {
	return &Job{
		ID:        rec.ID,
		state:     JobState(rec.State),
		source:    rec.Source,
		trace:     rec.Trace,
		traceHash: rec.TraceHash,
		err:       rec.Error,
		created:   rec.Created,
		started:   rec.Started,
		finished:  rec.Finished,
		node:      rec.Node,
		attempts:  rec.Attempts,
	}
}

// insertRestored registers a rehydrated job and advances the ID
// sequence past it. Caller holds s.mu.
func (s *jobStore) insertRestored(j *Job) {
	var n int
	if _, err := fmt.Sscanf(j.ID, "j-%d", &n); err == nil && n > s.seq {
		s.seq = n
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
	switch j.state {
	case StateDone, StateFailed:
	default:
		j.state = StateFailed
		j.err = "job lost in wolfd restart before analysis finished"
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
	j.state = StateQueued
	j.node = ""
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
