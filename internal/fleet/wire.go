// Package fleet implements the distributed side of wolfd: the wire
// protocol between a coordinator (wolfd -role=coordinator) and its
// analyzer nodes (wolfd -role=analyzer -coordinator=URL), and the
// analyzer itself.
//
// Protocol (all JSON over the coordinator's existing HTTP surface):
//
//	POST /v1/nodes                 register → node ID + fleet timings
//	POST /v1/nodes/{id}/heartbeat  liveness; 404 once the node is lost
//	POST /v1/work/pull             lease one job; an idle pull waits for
//	                               work, 204 once the hold passes
//	POST /v1/work/renew            extend a lease; 409 once it is gone
//	POST /v1/work/complete         deliver a result (first result wins)
//
// Robustness model: work is handed out under time-bounded leases the
// analyzer must renew. A missed heartbeat marks the node lost and its
// jobs are reassigned; an expired lease reassigns just that job. Each
// job carries a bounded delivery budget — when reassignment exhausts
// it the coordinator terminal-fails the job with reason
// "reassign-exhausted". A lease renewed too many times marks its
// holder a straggler and the job is re-offered to a second node;
// whichever result arrives first wins, keyed on the job (and the
// defect corpus dedupes by canonical fingerprint regardless). All
// durations on the wire are integer milliseconds, except a Tally's
// phase durations; trace blobs are base64-encoded WTRC.
//
// In process (wolfd's single role) a grant hands the trace over by
// pointer, in WorkView's json:"-" fields. A completion has one form
// whatever the transport: the analyzer renders the report, its corpus
// summaries and its metrics tally, so the server finishes a local and
// a remote result alike and never sees the in-memory report.
package fleet

import (
	"encoding/json"
	"time"

	"wolf/internal/store"
	"wolf/internal/trace"
)

// Failure reasons a CompleteRequest carries: the coordinator's
// wolfd_jobs_failed_total{reason} labels.
const (
	ReasonError    = "error"
	ReasonTimeout  = "timeout"
	ReasonPanic    = "panic"
	ReasonWatchdog = "watchdog"
)

// RegisterRequest is the body of POST /v1/nodes.
type RegisterRequest struct {
	// Name is the analyzer's self-chosen label (hostname by default);
	// the coordinator assigns the authoritative ID.
	Name string `json:"name"`
}

// RegisterView is the coordinator's reply: the assigned node ID plus
// the fleet timings the analyzer must honor.
type RegisterView struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// HeartbeatMillis is how often the analyzer should heartbeat;
	// HeartbeatTimeoutMillis is how long silence lasts before the
	// coordinator declares the node lost.
	HeartbeatMillis        int64 `json:"heartbeat_millis"`
	HeartbeatTimeoutMillis int64 `json:"heartbeat_timeout_millis"`
	// LeaseTTLMillis is the lease duration on pulled work; renew well
	// before it elapses.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
	// PullHoldMillis is how long the coordinator holds a pull that has
	// nothing to lease before answering 204. Zero (a coordinator that
	// answers idle pulls at once) tells the analyzer to sleep its Poll
	// between idle pulls instead of re-pulling straight away.
	PullHoldMillis int64 `json:"pull_hold_millis,omitempty"`
}

// NodeView is one known analyzer in GET /v1/nodes and wolfctl nodes.
type NodeView struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"` // "alive" or "lost"
	// Leased is the number of jobs currently leased to the node.
	Leased        int    `json:"leased"`
	Completed     int64  `json:"completed"`
	Failed        int64  `json:"failed"`
	Registered    string `json:"registered"`
	LastHeartbeat string `json:"last_heartbeat,omitempty"`
}

// PullRequest is the body of POST /v1/work/pull.
type PullRequest struct {
	Node string `json:"node"`
}

// WorkView is one leased job. Exactly one of Trace, TraceB64 or
// Workload is set: either the coordinator hands over the recorded
// trace, or the analyzer records the named workload itself.
type WorkView struct {
	Job    string `json:"job"`
	Source string `json:"source"`
	// TraceID is the job's causal identity (W3C trace ID), propagated
	// so analyzer-side spans and logs correlate with the coordinator's.
	TraceID string `json:"trace_id,omitempty"`
	// TraceB64 is the base64-encoded WTRC blob to analyze; TraceHash is
	// its content address in the coordinator's corpus, when it has one.
	// Trace is the same trace in memory, from an in-process coordinator.
	TraceB64  string       `json:"trace_b64,omitempty"`
	TraceHash string       `json:"trace_hash,omitempty"`
	Trace     *trace.Trace `json:"-"`
	// Workload names a registry workload the analyzer records itself;
	// Seed pins the detection schedule (0 = search, bounded by
	// SeedTries).
	Workload  string `json:"workload,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	SeedTries int    `json:"seed_tries,omitempty"`
	// Recorded, from an in-process coordinator, receives the workload's
	// trace as soon as the analyzer has recorded it, before the analysis
	// runs — so the job has its trace whatever the analysis then does.
	Recorded func(*trace.Trace) `json:"-"`
	// Attempts is how many times the job has been delivered, this
	// delivery included.
	Attempts       int   `json:"attempts"`
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
}

// RenewRequest is the body of POST /v1/work/renew.
type RenewRequest struct {
	Node string `json:"node"`
	Job  string `json:"job"`
}

// RenewView confirms an extended lease.
type RenewView struct {
	Job            string `json:"job"`
	LeaseTTLMillis int64  `json:"lease_ttl_millis"`
	Renewals       int    `json:"renewals"`
}

// CompleteRequest is the body of POST /v1/work/complete: one finished
// analysis, successful or not.
type CompleteRequest struct {
	Node string `json:"node"`
	Job  string `json:"job"`
	OK   bool   `json:"ok"`
	// Error describes the failure when OK is false, and Reason
	// classifies it (ReasonTimeout, ReasonPanic, ReasonWatchdog or
	// ReasonError).
	Error  string `json:"error,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Report is the wire-format analysis report (report.JSONReport) of
	// a successful run, a JSON object served verbatim by the server's
	// report endpoint.
	Report json.RawMessage `json:"report,omitempty"`
	// Summaries are the per-fingerprint defect summaries the server
	// folds into its corpus, read off Report's cycles: the first
	// unrefuted cycle of each fingerprint.
	Summaries []store.CycleSummary `json:"summaries,omitempty"`
	// Tally is what the run adds to the server's verdict metrics.
	Tally Tally `json:"tally,omitzero"`
	// TraceB64 carries the analyzed trace's WTRC encoding when a remote
	// analyzer recorded it itself (workload jobs), so the corpus holds
	// what was analyzed; TraceHash is its content address. An
	// in-process analyzer hands its recording over through the grant's
	// Recorded hook instead.
	TraceB64  string `json:"trace_b64,omitempty"`
	TraceHash string `json:"trace_hash,omitempty"`
}

// Tally is what one successful analysis adds to the server's verdict
// metrics, counted by the analyzer from the wire report before it is
// marshalled, so that the server never decodes a report to count it.
// Phase durations travel in nanoseconds: a phase often takes less than
// a millisecond.
type Tally struct {
	Cycles int `json:"cycles"`
	// Defects by verdict class.
	Pruned     int `json:"pruned,omitempty"`
	Infeasible int `json:"infeasible,omitempty"`
	Confirmed  int `json:"confirmed,omitempty"`
	Unknown    int `json:"unknown,omitempty"`
	// Confirmations counts confirmed cycles by replay method, Divergence
	// failed replay attempts by reason, Faults injected perturbations.
	Confirmations map[string]int `json:"confirmations,omitempty"`
	Divergence    map[string]int `json:"divergence,omitempty"`
	Faults        int            `json:"faults,omitempty"`
	Detect        time.Duration  `json:"detect_ns"`
	Prune         time.Duration  `json:"prune_ns"`
	Generate      time.Duration  `json:"generate_ns"`
}

// Defects is the number of defects the tally counts.
func (t Tally) Defects() int { return t.Pruned + t.Infeasible + t.Confirmed + t.Unknown }

// CompleteView is the coordinator's verdict on a delivered result.
type CompleteView struct {
	Job string `json:"job"`
	// Result is "accepted" for the winning result, "duplicate" when the
	// job already reached a terminal state (first result won).
	Result string `json:"result"`
}

// Millis converts a wire millisecond count to a duration.
func Millis(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }

// ToMillis converts a duration to wire milliseconds.
func ToMillis(d time.Duration) int64 { return int64(d / time.Millisecond) }
