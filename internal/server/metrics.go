package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"wolf/internal/fleet"
	"wolf/internal/obs"
)

// FailReason labels the reason dimension of wolfd_jobs_failed_total.
type FailReason string

const (
	// FailError: the analysis returned an error (bad trace, preparation
	// failure).
	FailError FailReason = "error"
	// FailTimeout: the per-job timeout cancelled the analysis.
	FailTimeout FailReason = "timeout"
	// FailPanic: the analysis panicked and was recovered.
	FailPanic FailReason = "panic"
	// FailWatchdog: the analysis ignored its cancelled context past the
	// grace period and the worker abandoned it.
	FailWatchdog FailReason = "watchdog"
	// FailDrained: the job was still queued when Shutdown began and was
	// failed fast instead of analyzed.
	FailDrained FailReason = "drained"
	// FailReassign: the job's bounded redelivery budget was exhausted —
	// every delivery to an analyzer node ended in a lost lease
	// (coordinator role only).
	FailReassign FailReason = "reassign-exhausted"
)

// Metrics is the wolfd in-process metrics registry. Counters are plain
// atomics and latency distributions are obs.Histogram (lock-free,
// power-of-two buckets) — no external metrics dependency — rendered in
// Prometheus text exposition format at GET /metrics so standard
// scrapers work unchanged.
//
// Failures are counted once, under exactly one FailReason (error,
// timeout, panic, watchdog, drained or reassign-exhausted), as the
// series of wolfd_jobs_failed_total{reason=...}.
type Metrics struct {
	// JobsAccepted counts jobs admitted to the queue.
	JobsAccepted atomic.Int64
	// JobsRejected counts uploads refused because the queue was full.
	JobsRejected atomic.Int64
	// JobsCompleted counts jobs whose analysis finished.
	JobsCompleted atomic.Int64
	// JobsErrored counts jobs failed by an analysis error.
	JobsErrored atomic.Int64
	// JobsTimedOut counts jobs cancelled by the per-job timeout.
	JobsTimedOut atomic.Int64
	// JobsPanicked counts recovered analysis panics.
	JobsPanicked atomic.Int64
	// JobsWatchdogged counts analyses abandoned by the worker watchdog.
	JobsWatchdogged atomic.Int64
	// JobsDrained counts queued jobs failed fast during shutdown.
	JobsDrained atomic.Int64
	// JobsReassignEx counts jobs terminal-failed because the bounded
	// redelivery budget ran out (coordinator role).
	JobsReassignEx atomic.Int64

	// Fleet (coordinator role). NodesRegistered/NodesLost are lifetime
	// counters; the live node gauge is read from the lease table.
	// JobsReassigned counts lease revocations that re-queued a job
	// (including straggler re-offers); LeaseRenewals counts granted
	// renewals; DuplicateResults counts completions that lost the
	// first-result-wins race.
	NodesRegistered  atomic.Int64
	NodesLost        atomic.Int64
	JobsReassigned   atomic.Int64
	LeaseRenewals    atomic.Int64
	DuplicateResults atomic.Int64
	// SyncRejected counts synchronous analyses shed because every worker
	// slot was busy.
	SyncRejected atomic.Int64
	// AnalysisParallelism is the widest per-job Generator worker pool
	// (core.GeneratorPool), set once at startup.
	AnalysisParallelism atomic.Int64

	// Streaming ingestion (/v1/streams). StreamsOpen is the live gauge;
	// StreamsOpened counts admissions by the client-declared source
	// ("sim" for trace replays, "wolfsync" for live runtime recorders,
	// "unknown" when the open carried no metadata); StreamsRejected
	// counts shed opens; StreamEvents counts decoded tuples fed to the
	// incremental engine; StreamCandidates counts cycle candidates
	// emitted mid-stream.
	StreamsOpen      atomic.Int64
	StreamsOpened    *obs.CounterSet
	StreamsRejected  atomic.Int64
	StreamEvents     atomic.Int64
	StreamCandidates atomic.Int64
	// StreamEvicted counts streams removed before a normal close, by
	// reason (idle, budget, corrupt, invalid, empty, aborted, shutdown).
	StreamEvicted *obs.CounterSet
	// StreamBytes is the per-stream total byte count, observed once per
	// stream at its terminal transition (close or eviction).
	StreamBytes obs.Histogram

	// Events counts flight-recorder events by kind — the aggregate
	// (exemplar-style) face of GET /v1/debug/events, which holds the
	// individual entries with their trace IDs.
	Events *obs.CounterSet

	// InvalidTraces counts uploads rejected by trace.Validate, by
	// corruption class (422 responses).
	InvalidTraces *obs.CounterSet
	// ReplayDivergence histograms failed replay attempts by divergence
	// reason, aggregated over every analyzed cycle.
	ReplayDivergence *obs.CounterSet
	// ReplayConfirmed counts confirmed cycles by replay method (steered
	// Algorithm 4 vs. the PCT-randomized fallback).
	ReplayConfirmed *obs.CounterSet
	// FaultsInjected counts scheduling perturbations injected across all
	// replays.
	FaultsInjected atomic.Int64

	// CyclesTotal counts potential deadlock cycles across all reports.
	CyclesTotal atomic.Int64
	// Defect verdict counts across all reports, by class.
	DefectsPruned     atomic.Int64
	DefectsInfeasible atomic.Int64
	DefectsConfirmed  atomic.Int64
	DefectsUnknown    atomic.Int64

	// Latency distributions. The phase histograms observe each
	// completion's tally; QueueWait covers admission to the first lease;
	// Analysis is wall clock from a job's first lease to its verdict in
	// either role, or a synchronous analysis's run.
	QueueWait     obs.Histogram
	PhaseDetect   obs.Histogram
	PhasePrune    obs.Histogram
	PhaseGenerate obs.Histogram
	Analysis      obs.Histogram
}

// newMetrics returns a registry with its counter sets initialized.
func newMetrics() *Metrics {
	return &Metrics{
		Events:           obs.NewCounterSet(),
		StreamsOpened:    obs.NewCounterSet(),
		StreamEvicted:    obs.NewCounterSet(),
		InvalidTraces:    obs.NewCounterSet(),
		ReplayDivergence: obs.NewCounterSet(),
		ReplayConfirmed:  obs.NewCounterSet(),
	}
}

// Fail counts one failed job under exactly one reason.
func (m *Metrics) Fail(reason FailReason) {
	switch reason {
	case FailTimeout:
		m.JobsTimedOut.Add(1)
	case FailPanic:
		m.JobsPanicked.Add(1)
	case FailWatchdog:
		m.JobsWatchdogged.Add(1)
	case FailDrained:
		m.JobsDrained.Add(1)
	case FailReassign:
		m.JobsReassignEx.Add(1)
	default:
		m.JobsErrored.Add(1)
	}
}

// JobsFailed is the total across failure reasons.
func (m *Metrics) JobsFailed() int64 {
	return m.JobsErrored.Load() + m.JobsTimedOut.Load() + m.JobsPanicked.Load() +
		m.JobsWatchdogged.Load() + m.JobsDrained.Load() + m.JobsReassignEx.Load()
}

// observe folds one completed analysis, its tally and its wall clock,
// into the registry.
func (m *Metrics) observe(t fleet.Tally, analysis time.Duration) {
	m.JobsCompleted.Add(1)
	m.PhaseDetect.Observe(t.Detect)
	m.PhasePrune.Observe(t.Prune)
	m.PhaseGenerate.Observe(t.Generate)
	m.Analysis.Observe(analysis)
	m.CyclesTotal.Add(int64(t.Cycles))
	m.DefectsPruned.Add(int64(t.Pruned))
	m.DefectsInfeasible.Add(int64(t.Infeasible))
	m.DefectsConfirmed.Add(int64(t.Confirmed))
	m.DefectsUnknown.Add(int64(t.Unknown))
	for reason, n := range t.Divergence {
		m.ReplayDivergence.Add(reason, int64(n))
	}
	for method, n := range t.Confirmations {
		m.ReplayConfirmed.Add(method, int64(n))
	}
	m.FaultsInjected.Add(int64(t.Faults))
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, with the gauges the lease table reports. The fleet families
// render only on a coordinator, so the single-process exposition stays
// byte-identical to earlier releases.
func (m *Metrics) WritePrometheus(w io.Writer, c tableCounts, coordinator bool) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("wolfd_jobs_accepted_total", "Jobs admitted to the queue.", m.JobsAccepted.Load())
	counter("wolfd_jobs_rejected_total", "Uploads refused because the queue was full.", m.JobsRejected.Load())
	counter("wolfd_jobs_completed_total", "Jobs whose analysis finished.", m.JobsCompleted.Load())

	name := "wolfd_jobs_failed_total"
	fmt.Fprintf(w, "# HELP %s Jobs that failed, by reason.\n# TYPE %s counter\n", name, name)
	fmt.Fprintf(w, "%s{reason=\"error\"} %d\n", name, m.JobsErrored.Load())
	fmt.Fprintf(w, "%s{reason=\"timeout\"} %d\n", name, m.JobsTimedOut.Load())
	fmt.Fprintf(w, "%s{reason=\"panic\"} %d\n", name, m.JobsPanicked.Load())
	fmt.Fprintf(w, "%s{reason=\"watchdog\"} %d\n", name, m.JobsWatchdogged.Load())
	fmt.Fprintf(w, "%s{reason=\"drained\"} %d\n", name, m.JobsDrained.Load())
	fmt.Fprintf(w, "%s{reason=\"reassign-exhausted\"} %d\n", name, m.JobsReassignEx.Load())
	counter("wolfd_sync_rejected_total", "Synchronous analyses shed because every worker slot was busy.", m.SyncRejected.Load())

	gauge("wolfd_streams_open", "Currently open ingestion streams.", m.StreamsOpen.Load())
	counter("wolfd_streams_rejected_total", "Stream opens shed at the max-open-streams cap.", m.StreamsRejected.Load())
	counter("wolfd_stream_events_total", "Tuples decoded from stream chunks and fed to the incremental detector.", m.StreamEvents.Load())
	counter("wolfd_stream_candidates_total", "Cycle candidates emitted mid-stream.", m.StreamCandidates.Load())

	gauge("wolfd_queue_depth", "Queued-but-not-started jobs.", int64(c.depth))
	gauge("wolfd_workers_busy", "Workers currently running an analysis.", int64(c.busy))
	gauge("wolfd_analysis_parallelism", "Widest per-job Generator worker pool (GOMAXPROCS, capped at core.MaxParallelism).", m.AnalysisParallelism.Load())
	counter("wolfd_cycles_total", "Potential deadlock cycles detected across all reports.", m.CyclesTotal.Load())
	counter("wolfd_replay_faults_injected_total", "Scheduling perturbations injected across all replays.", m.FaultsInjected.Load())

	// Dynamic-label counters render only once they have samples; an empty
	// family would fail the exposition linter (TYPE with no series).
	counterSet := func(set *obs.CounterSet, name, help, label string) {
		if set == nil || len(set.Snapshot()) == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		set.WritePrometheus(w, name, label)
	}
	counterSet(m.Events, "wolfd_events_total", "Flight-recorder events, by kind.", "kind")
	counterSet(m.StreamsOpened, "wolfd_streams_opened_total", "Ingestion streams admitted, by client-declared source.", "source")
	counterSet(m.StreamEvicted, "wolfd_stream_evicted_total", "Streams removed before a normal close, by reason.", "reason")
	counterSet(m.InvalidTraces, "wolfd_traces_invalid_total", "Uploads rejected by trace validation, by corruption class.", "class")
	counterSet(m.ReplayDivergence, "wolfd_replay_divergence_total", "Failed replay attempts, by divergence reason.", "reason")
	counterSet(m.ReplayConfirmed, "wolfd_replay_confirmed_total", "Cycles confirmed by replay, by method.", "method")

	name = "wolfd_defects_total"
	fmt.Fprintf(w, "# HELP %s Defects reported, by pipeline verdict.\n# TYPE %s counter\n", name, name)
	fmt.Fprintf(w, "%s{class=\"pruned\"} %d\n", name, m.DefectsPruned.Load())
	fmt.Fprintf(w, "%s{class=\"infeasible\"} %d\n", name, m.DefectsInfeasible.Load())
	fmt.Fprintf(w, "%s{class=\"confirmed\"} %d\n", name, m.DefectsConfirmed.Load())
	fmt.Fprintf(w, "%s{class=\"unknown\"} %d\n", name, m.DefectsUnknown.Load())

	m.QueueWait.WritePrometheus(w, "wolfd_queue_wait_seconds", "Time from job admission to worker pickup.", "")
	m.PhaseDetect.WritePrometheus(w, "wolfd_phase_detect_seconds", "Per-job cycle-detection latency.", "")
	m.PhasePrune.WritePrometheus(w, "wolfd_phase_prune_seconds", "Per-job pruner latency.", "")
	m.PhaseGenerate.WritePrometheus(w, "wolfd_phase_generate_seconds", "Per-job generator latency.", "")
	m.Analysis.WritePrometheus(w, "wolfd_analysis_seconds", "Per-job time from first lease to verdict.", "")
	m.StreamBytes.WritePrometheusValues(w, "wolfd_stream_bytes", "Total bytes per ingestion stream, observed at stream end.", "")

	bi := obs.ReadBuildInfo()
	name = "wolfd_build_info"
	fmt.Fprintf(w, "# HELP %s Build information; value is always 1.\n# TYPE %s gauge\n", name, name)
	fmt.Fprintf(w, "%s{%s,%s,%s} 1\n", name,
		obs.Label("version", bi.Version), obs.Label("goversion", bi.GoVersion), obs.Label("revision", bi.Revision))

	if !coordinator {
		return
	}
	counter("wolfd_nodes_registered_total", "Analyzer nodes that ever registered.", m.NodesRegistered.Load())
	counter("wolfd_nodes_lost_total", "Analyzer nodes declared lost after missed heartbeats.", m.NodesLost.Load())
	gauge("wolfd_nodes_alive", "Currently registered, non-lost analyzer nodes.", int64(c.alive))
	counter("wolfd_jobs_reassigned_total", "Jobs re-queued after a revoked lease (including straggler re-offers).", m.JobsReassigned.Load())
	counter("wolfd_lease_renewals_total", "Work lease renewals granted.", m.LeaseRenewals.Load())
	counter("wolfd_results_duplicate_total", "Completions that lost the first-result-wins race.", m.DuplicateResults.Load())
	if len(c.nodes) == 0 { // an empty family would fail the exposition linter
		return
	}
	name = "wolfd_node_leased"
	fmt.Fprintf(w, "# HELP %s Jobs currently leased, per analyzer node.\n# TYPE %s gauge\n", name, name)
	for _, n := range c.nodes {
		fmt.Fprintf(w, "%s{%s,%s} %d\n", name, obs.Label("node", n.id), obs.Label("name", n.name), n.leased)
	}
}
