// Package server implements wolfd, the long-running WOLF analysis
// service: clients upload recorded traces (JSON or the binary "WTRC"
// format, optionally gzipped) over HTTP, a bounded queue feeds leased
// analyzers — in process, or remote under a coordinator (fleet.go) —
// running the offline pipeline (cycle detection → Pruner → Generator),
// and structured reports come back as JSON or Graphviz dot.
//
// API:
//
//	POST /v1/traces              upload a trace, enqueue analysis → 202 + job
//	POST /v1/analyze             upload a trace, analyze synchronously → report
//	POST /v1/workloads/{name}    record a named workload server-side, enqueue
//	GET  /v1/workloads           list the workload registry
//	GET  /v1/jobs                list jobs (?state=done&limit=N)
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/report    analysis report (JSON)
//	GET  /v1/jobs/{id}/dot       a defect's synchronization dependency graph
//	GET  /v1/jobs/{id}/timeline  the job's trace as Chrome trace-event JSON (Perfetto)
//	GET  /metrics                Prometheus text metrics
//	GET  /version                build information (JSON)
//	GET  /healthz                liveness + queue depth
//
// With a corpus attached (wolfd -data-dir), uploaded traces, jobs and
// aggregated defect records persist across restarts and the corpus API
// is served too:
//
//	GET    /v1/traces               list stored trace blobs
//	GET    /v1/traces/{hash}        one stored trace, binary encoding
//	DELETE /v1/traces/{hash}        remove a stored trace blob
//	POST   /v1/traces/{hash}/replay re-enqueue analysis of a stored trace
//	GET    /v1/defects              defect records (?class=&workload=&method=
//	                                &since=&until=&min_occurrences=&sort=
//	                                &limit=&offset=; default limit 100)
//	GET    /v1/defects/{fp}         one defect record by fingerprint
package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"wolf/internal/core"
	"wolf/internal/fingerprint"
	"wolf/internal/fleet"
	"wolf/internal/obs"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// Config controls a wolfd server.
type Config struct {
	// Role selects the fleet role: RoleSingle (default — admit and
	// analyze in one process) or RoleCoordinator (admit and persist
	// here, hand analysis to registered analyzer nodes under leases).
	// Analyzer nodes are not servers; see internal/fleet.
	Role string
	// LeaseTTL bounds one work lease; analyzers must renew before it
	// elapses or the job is reassigned (default 15s).
	LeaseTTL time.Duration
	// HeartbeatInterval is the cadence registration hands to analyzers
	// (default 3s); HeartbeatTimeout is how long a node may stay silent
	// before it is declared lost and its jobs reassigned (default 10s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// MaxDeliveries bounds how many times a job is handed out before
	// reassignment terminal-fails it with reason "reassign-exhausted"
	// (default 3).
	MaxDeliveries int
	// MaxRenewals is how many renewals one lease may take before its
	// holder is treated as a straggler and the job is re-offered to a
	// second node, first result winning (default 8).
	MaxRenewals int
	// Workers is the number of in-process analyzers in the single role
	// (default 4); it also bounds concurrent synchronous analyses.
	Workers int
	// QueueSize bounds the jobs waiting for a lease, a coordinator's
	// re-offers included; a full queue rejects uploads with 429 (default
	// 64). Re-offers themselves are never refused.
	QueueSize int
	// JobTimeout cancels an analysis that runs longer (default 30s).
	JobTimeout time.Duration
	// WatchdogGrace is how long past JobTimeout an in-process analyzer
	// waits for a cancelled analysis before abandoning it and failing the
	// job (default 2s, fleet.AnalyzerConfig's).
	WatchdogGrace time.Duration
	// MaxUploadBytes bounds a decompressed upload (default 32 MiB).
	MaxUploadBytes int64
	// MaxOpenStreams bounds concurrently open ingestion streams; opens
	// beyond it are shed with 429 + Retry-After (default 64).
	MaxOpenStreams int
	// StreamIdleTimeout evicts a stream that has not received a chunk
	// for this long (default 2m).
	StreamIdleTimeout time.Duration
	// StreamMemBudget bounds one stream decoder's retained memory;
	// breaching it rejects the stream with 413 (default 16 MiB).
	StreamMemBudget int64
	// FlightRecorderSize bounds the daemon-wide flight recorder — the
	// fixed ring of recent lifecycle events behind GET /v1/debug/events
	// (default 4096 entries, rounded up to a power of two).
	FlightRecorderSize int
	// Analysis configures the offline pipeline for every job.
	Analysis core.Config
	// Analyze overrides the analysis function (tests); default
	// core.AnalyzeTraceCtx.
	Analyze func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error)
	// SeedTries bounds the terminating-seed search for workload jobs
	// (default 300, fleet.AnalyzerConfig's).
	SeedTries int
	// Logger receives structured job lifecycle logs (start, done, failed)
	// tagged with job IDs. Silent when nil; the wolfd binary wires it to
	// stderr via -log-format/-log-level.
	Logger *slog.Logger
	// Store is the persistent defect corpus (wolfd -data-dir). When set,
	// uploaded and server-recorded traces are archived by content
	// address, finished analyses fold their cycles into fingerprinted
	// defect records, the job log survives restarts, and the corpus
	// endpoints are live. Nil keeps the server fully in-memory.
	Store *store.Store
	// MaxCorpusBytes bounds the total size of stored trace blobs (wolfd
	// -max-corpus-bytes); TraceTTL expires blobs by age (wolfd
	// -trace-ttl). When either is set a GC janitor prunes unreferenced
	// blobs every GCInterval (default 1m). Traces confirming a defect
	// are never deleted.
	MaxCorpusBytes int64
	TraceTTL       time.Duration
	GCInterval     time.Duration
}

func (c *Config) fill() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 3 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.MaxDeliveries <= 0 {
		c.MaxDeliveries = 3
	}
	if c.MaxRenewals <= 0 {
		c.MaxRenewals = 8
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 32 << 20
	}
	if c.MaxOpenStreams <= 0 {
		c.MaxOpenStreams = 64
	}
	if c.StreamIdleTimeout <= 0 {
		c.StreamIdleTimeout = 2 * time.Minute
	}
	if c.StreamMemBudget <= 0 {
		c.StreamMemBudget = 16 << 20
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 4096
	}
	if c.Analyze == nil {
		c.Analyze = core.AnalyzeTraceCtx
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
}

// Server is a wolfd instance: job store, bounded job queue and lease table,
// in-process analyzers and HTTP handler. Create with New, serve
// Handler(), stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	jobs    *jobStore
	mux     *http.ServeMux
	// syncSem bounds concurrent synchronous analyses (POST /v1/analyze)
	// to Workers; acquiring is non-blocking, so saturation
	// sheds load with 429 instead of stacking goroutines.
	syncSem chan struct{}
	// syncRunner runs the synchronous analyses with the timeout, panic
	// recovery and watchdog of every leased job; it never pulls.
	syncRunner *fleet.Analyzer
	// streams is the open ingestion-stream registry.
	streams *streamStore
	// stop is closed when Shutdown begins: it ends the janitors and any
	// /v1/debug/events SSE tails.
	stop     chan struct{}
	stopOnce sync.Once
	// flight is the daemon-wide flight recorder: a bounded lock-free
	// ring of recent lifecycle events across all jobs and streams.
	flight  *obs.FlightRecorder
	started time.Time
	// table is the job queue and the node and lease bookkeeping every
	// analysis runs under.
	table *leaseTable
	// analyzers starts the single role's analyzers with the first
	// admitted job; Shutdown spends it so none start after the drain.
	analyzers sync.Once
	wg        sync.WaitGroup
}

// New builds a server. With a corpus attached, the job registry is
// rehydrated from the persisted job log first: finished jobs come back
// with their reports, and jobs the previous process never finished are
// failed (their queue position died with it) so clients polling them
// see a terminal state, not a hang — or, on a coordinator, requeued.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		jobs:    newJobStore(cfg.Role == RoleCoordinator),
		syncSem: make(chan struct{}, cfg.Workers),
		streams: newStreamStore(),
		stop:    make(chan struct{}),
		flight:  obs.NewFlightRecorder(cfg.FlightRecorderSize),
		started: time.Now(),
	}
	s.metrics.AnalysisParallelism.Store(int64(core.GeneratorPool()))
	s.table = newLeaseTable(cfg, time.Now)
	s.syncRunner = fleet.NewAnalyzerFor(nil, s.analyzerConfig("sync", cfg.Logger))
	if cfg.Store != nil {
		var requeued []*Job
		for _, rec := range cfg.Store.Jobs() {
			// Coordinator restarts survive in-flight work: a non-terminal
			// job whose trace is recoverable (corpus blob, or a workload
			// the analyzer records itself) goes back to the fleet instead
			// of being failed. Everything else takes the single-process
			// path: terminal jobs restore as-is, unrecoverable ones fail.
			if s.coordinator() && requeueable(rec, cfg.Store) {
				j := s.jobs.restoreQueued(rec)
				requeued = append(requeued, j)
				s.persistJob(j)
				cfg.Logger.Info("job re-queued after coordinator restart",
					"job", j.ID, "trace", j.TraceID(), "attempts", j.Attempts())
				continue
			}
			j, lost := s.jobs.restore(rec)
			if lost {
				s.persistJob(j)
				cfg.Logger.Warn("job lost in restart", "job", j.ID, "trace", j.TraceID())
			}
		}
		s.failExhausted(s.table.restore(requeued))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/traces", s.handleUpload)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyzeSync)
	s.mux.HandleFunc("POST /v1/streams", s.handleStreamOpen)
	s.mux.HandleFunc("POST /v1/streams/{id}/chunks", s.handleStreamChunk)
	s.mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamGet)
	s.mux.HandleFunc("POST /v1/streams/{id}/close", s.handleStreamClose)
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamDelete)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/workloads/{name}", s.handleWorkloadJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/dot", s.handleDot)
	s.mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /v1/traces/{hash}", s.handleTraceGet)
	s.mux.HandleFunc("DELETE /v1/traces/{hash}", s.handleTraceDelete)
	s.mux.HandleFunc("POST /v1/traces/{hash}/replay", s.handleTraceReplay)
	s.mux.HandleFunc("GET /v1/defects", s.handleDefects)
	s.mux.HandleFunc("GET /v1/defects/{fp}", s.handleDefect)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/debug/events", s.handleDebugEvents)
	s.mux.HandleFunc("POST /v1/nodes", fleetHandler(s, "register", 1<<20, s.register))
	s.mux.HandleFunc("GET /v1/nodes", s.handleNodeList)
	s.mux.HandleFunc("POST /v1/nodes/{id}/heartbeat", s.handleNodeHeartbeat)
	s.mux.HandleFunc("POST /v1/work/pull", fleetHandler(s, "pull", 1<<20, s.pull))
	s.mux.HandleFunc("POST /v1/work/renew", fleetHandler(s, "renew", 1<<20, s.renew))
	s.mux.HandleFunc("POST /v1/work/complete", fleetHandler(s, "complete", cfg.MaxUploadBytes, s.complete))
	// The janitors: lease and node expiry (coordinator only, every
	// quarter of the shortest deadline, clamped to [5ms, 1s]),
	// idle-stream eviction, and — with a corpus and at least one bound
	// set — trace GC.
	if s.coordinator() {
		s.every(min(max(min(cfg.LeaseTTL, cfg.HeartbeatTimeout)/4, 5*time.Millisecond), time.Second), s.sweep)
	}
	s.every(min(max(cfg.StreamIdleTimeout/4, 50*time.Millisecond), 15*time.Second), s.evictIdleStreams)
	if cfg.Store != nil && (cfg.MaxCorpusBytes > 0 || cfg.TraceTTL > 0) {
		s.every(cfg.GCInterval, s.collectGarbage)
	}
	return s
}

// every runs fn with the tick time every d until Shutdown.
func (s *Server) every(d time.Duration, fn func(now time.Time)) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				fn(now)
			}
		}
	}()
}

// collectGarbage prunes unreferenced trace blobs under the configured
// size budget and age ceiling.
func (s *Server) collectGarbage(now time.Time) {
	stats := s.cfg.Store.GC(store.GCPolicy{MaxBytes: s.cfg.MaxCorpusBytes, TTL: s.cfg.TraceTTL}, now)
	if stats.Deleted == 0 {
		return
	}
	s.cfg.Logger.Info("corpus gc", "deleted", stats.Deleted,
		"bytes_reclaimed", stats.BytesReclaimed, "kept_referenced", stats.Kept)
	s.event(obs.Event{Kind: evStoreGC, Msg: "trace gc pass", Attrs: map[string]string{
		"deleted":         strconv.Itoa(stats.Deleted),
		"bytes_reclaimed": strconv.FormatInt(stats.BytesReclaimed, 10),
	}})
}

// requeueable reports whether a restarted coordinator sends a persisted
// job back to the fleet: it never finished, and its work is still
// deliverable, as a trace blob in the corpus or a workload the analyzer
// records itself.
func requeueable(rec store.JobRecord, st *store.Store) bool {
	switch JobState(rec.State) {
	case StateDone, StateFailed:
		return false
	}
	return rec.TraceHash != "" && st.HasTrace(rec.TraceHash) || strings.HasPrefix(rec.Source, "workload:")
}

// persistJob appends the job's current state to the corpus job log. A
// persistence failure never fails the request — the corpus degrades to
// best-effort and the error is logged.
func (s *Server) persistJob(j *Job) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.AppendJob(j.record()); err != nil {
		s.cfg.Logger.Error("persist job", "job", j.ID, "err", err)
	}
}

// archiveTrace stores tr in the corpus and stamps its content address
// on the job. Archival failures are logged, not fatal.
func (s *Server) archiveTrace(ctx context.Context, j *Job, tr *trace.Trace) {
	if s.cfg.Store == nil || tr == nil {
		return
	}
	hash, _, err := s.cfg.Store.PutTrace(ctx, tr)
	if err != nil {
		s.cfg.Logger.Error("archive trace", "job", j.ID, "trace", j.TraceID(), "err", err)
		return
	}
	j.setTraceHash(hash)
	s.jobEvent(evStoreTrace, j, "trace archived", map[string]string{"hash": fingerprint.Short(hash)})
}

// settle makes a finished job's verdict durable before the job reads
// done: one fsynced journal append of its terminal record, which
// carries the defect delta of sums, folded into the corpus right after.
// It reports whether the journal holds the record. A corpus failure
// never fails the job; it is logged.
func (s *Server) settle(ctx context.Context, j *Job, rec store.JobRecord, sums []store.CycleSummary) bool {
	updated, err := s.cfg.Store.FinishJob(ctx, rec, sums)
	s.defectsRecorded(j.ID, j.TraceID(), updated, err)
	return err == nil || errors.Is(err, store.ErrInvalidSummary)
}

// defectsRecorded logs a fold into the corpus and publishes a
// store.defect event per fingerprint it touched. jobID and traceID are
// empty on the synchronous path, which has no job.
func (s *Server) defectsRecorded(jobID, traceID string, updated []string, err error) {
	if err != nil {
		s.cfg.Logger.Error("record defects", "job", jobID, "trace", traceID, "err", err)
	}
	for _, fp := range updated {
		s.cfg.Logger.Info("defect recorded", "job", jobID, "trace", traceID,
			"fingerprint", fingerprint.Short(fp))
		s.event(obs.Event{Kind: evStoreDefect, Job: jobID, Trace: traceID,
			Msg: "defect recorded", Attrs: map[string]string{"fingerprint": fingerprint.Short(fp)}})
	}
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains with a bias toward exiting fast: new uploads are
// refused, no pull leases, in-flight analyses complete (or are
// watchdog-failed), and — in the single role — jobs still sitting in the
// queue are failed immediately with a distinct "drained" reason rather
// than analyzed: a restarting client re-submits cheaply, whereas
// finishing a deep queue can outlive any reasonable drain budget. The
// context bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	for _, j := range s.table.close() {
		s.failJob(j, FailDrained, "server draining: job was queued but never started", "drained", "")
		s.cfg.Logger.Info("job drained", "job", j.ID, "source", j.Source(), "trace", j.TraceID())
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.analyzers.Do(func() {})
	// Open streams cannot finish once admission is closed; release their
	// slots now so the drained process accounts for them.
	for _, ss := range s.streams.snapshot() {
		s.dropStream(ss, "shutdown")
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// readTrace decodes an uploaded trace body — either format, gzip-aware
// (Content-Encoding header or magic sniff), size-capped. trace.Decode
// validates as it decodes, so a returned trace is ready for analysis;
// failures answer through rejectTrace, the mapping every door shares.
func (s *Server) readTrace(w http.ResponseWriter, r *http.Request) (*trace.Trace, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	var in = body
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad gzip stream: "+err.Error())
			return nil, false
		}
		defer zr.Close()
		in = http.MaxBytesReader(w, io.NopCloser(zr), s.cfg.MaxUploadBytes)
	}
	tr, err := trace.Decode(in)
	if err != nil {
		s.rejectTrace(w, err, nil)
		return nil, false
	}
	if len(tr.Tuples) == 0 {
		httpError(w, http.StatusBadRequest, "bad trace: no lock acquisitions recorded")
		return nil, false
	}
	return tr, true
}

// rejectTrace answers a trace that failed to decode, for every door —
// uploads, stream chunks and stream close — with one error→status
// mapping: 413 when a size or memory limit was hit, 422 labelled with
// the validation class (and counted in wolfd_traces_invalid_total) for
// well-formed bytes describing an impossible execution, 400 for bytes
// that do not parse. A failed stream is evicted under the error's
// family before the response is written.
func (s *Server) rejectTrace(w http.ResponseWriter, err error, ss *streamSession) {
	status, family, msg := http.StatusBadRequest, "corrupt", "bad trace: "+err.Error()
	var tooLarge *http.MaxBytesError
	var ve *trace.ValidationError
	switch {
	case errors.As(err, &tooLarge), errors.Is(err, trace.ErrBudget):
		status, family = http.StatusRequestEntityTooLarge, "budget"
	case errors.Is(err, trace.ErrInvalid):
		class := "invalid"
		if errors.As(err, &ve) {
			class = ve.Class
		}
		s.metrics.InvalidTraces.Add(class, 1)
		status, family, msg = http.StatusUnprocessableEntity, "invalid", err.Error()
	}
	if ss != nil {
		s.dropStream(ss, family)
	}
	httpError(w, status, msg)
}

// handleUpload is POST /v1/traces: decode, archive in the corpus,
// enqueue, 202. The traceparent header (minted when absent) becomes the
// job's causal identity and is echoed in the response.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	traceID := ingestTraceparent(w, r)
	tr, ok := s.readTrace(w, r)
	if !ok {
		return
	}
	j := s.jobs.add("upload", traceID, tr)
	s.archiveTrace(r.Context(), j, tr)
	s.admit(w, j)
}

// handleWorkloadJob is POST /v1/workloads/{name}: record the named
// workload server-side (on the analyzer, not the request path) and
// analyze the trace. Optional ?seed=N pins the detection schedule; 0
// searches for a terminating seed.
func (s *Server) handleWorkloadJob(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := workloads.ByName(name); !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown workload %q", name))
		return
	}
	traceID := ingestTraceparent(w, r)
	seed := int64(0)
	if v := r.URL.Query().Get("seed"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seed: "+err.Error())
			return
		}
		seed = parsed
	}
	j := s.jobs.add("workload:"+name, traceID, nil)
	j.wlSeed = seed
	s.admit(w, j)
}

// admit enqueues a freshly created job and writes the accept response.
// Every outcome is journaled: the accepted record marks admission, and
// a rejected job's terminal failure is persisted too, so the history a
// restarted server rehydrates matches what clients were told. The
// admission record is written before an analyzer can see the job, so
// a fast analyzer's terminal record always lands after it.
func (s *Server) admit(w http.ResponseWriter, j *Job) {
	s.persistJob(j)
	if v := s.table.admit(j); v != granted {
		j.fail(string(v))
		s.persistJob(j)
		s.jobEvent(evJobShed, j, string(v), nil)
		if v == refusedClosed {
			httpError(w, http.StatusServiceUnavailable, string(v))
			return
		}
		s.metrics.JobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "analysis queue full")
		return
	}
	s.metrics.JobsAccepted.Add(1)
	if !s.coordinator() {
		s.startAnalyzers()
	}
	s.jobEvent(evJobQueued, j, "", map[string]string{"source": j.Source()})
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleAnalyzeSync is POST /v1/analyze: run the pipeline inline on the
// request and return the report directly, in the compact form GET
// /v1/jobs/{id}/report serves. The analysis runs under the request
// context, so a client disconnect cancels it, in an analysis slot on
// the synchronous runner (runSync). Failures are counted.
func (s *Server) handleAnalyzeSync(w http.ResponseWriter, r *http.Request) {
	release, ok := s.analysisSlot(w)
	if !ok {
		return
	}
	defer release()
	traceID := ingestTraceparent(w, r)
	tr, ok := s.readTrace(w, r)
	if !ok {
		return
	}
	start := time.Now()
	res, status := s.runSync(r.Context(), fleet.WorkView{Source: "sync", TraceID: traceID, Trace: tr})
	if !res.OK {
		s.metrics.Fail(FailReason(res.Reason))
		httpError(w, status, res.Error)
		return
	}
	if s.cfg.Store != nil {
		if hash, _, perr := s.cfg.Store.PutTrace(r.Context(), tr); perr == nil {
			// No job: the delta is journaled as a record of its own.
			updated, err := s.cfg.Store.RecordSummaries(r.Context(), hash, res.Summaries, "", time.Now())
			s.defectsRecorded("", "", updated, err)
		} else {
			s.cfg.Logger.Error("archive trace", "source", "sync", "trace", traceID, "err", perr)
		}
	}
	s.metrics.observe(res.Tally, time.Since(start))
	writeRaw(w, res.Report)
}

// analysisSlot takes one of the Workers slots that analyses on the
// request path (POST /v1/analyze, dot) run in, and returns its release.
// Acquiring is non-blocking: when every slot is busy it answers 429
// rather than queue on the request path, where stacked analyses would
// starve the analyzers of CPU.
func (s *Server) analysisSlot(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.syncSem <- struct{}{}:
		return func() { <-s.syncSem }, true
	default:
		s.metrics.SyncRejected.Add(1)
		s.event(obs.Event{Kind: evSyncShed, Msg: "all analysis slots busy"})
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "all analysis slots busy")
		return nil, false
	}
}

// runSync runs one analysis on the synchronous runner, which applies
// the per-job timeout, panic recovery and watchdog of every leased job,
// and returns its completion and the status a failure answers: 504 on a
// timeout, 400 on another analysis error, 500 on a panic or watchdog.
func (s *Server) runSync(ctx context.Context, w fleet.WorkView) (fleet.CompleteRequest, int) {
	res := s.syncRunner.Analyze(ctx, w)
	if res.OK {
		return res, http.StatusOK
	}
	switch FailReason(res.Reason) {
	case FailTimeout:
		return res, http.StatusGatewayTimeout
	case FailError:
		return res, http.StatusBadRequest
	}
	return res, http.StatusInternalServerError
}

// handleWorkloads is GET /v1/workloads: the shared registry.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	names := []string{}
	for _, wl := range workloads.Registry() {
		names = append(names, wl.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": names})
}

// handleJobs is GET /v1/jobs. ?state=done filters by lifecycle state,
// ?limit=N keeps only the N most recent matches (tail of the
// creation-ordered list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	if state != "" && !validState(state) {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("bad state %q: want queued, running, done or failed", state))
		return
	}
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad limit: want a non-negative integer")
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list(state, limit)})
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// doneJob returns the done job the request names. Otherwise it answers
// why and reports false: 404 for no such job, 422 with the error of a
// failed one, and 409 with Retry-After while it is queued or running.
func (s *Server) doneJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return nil, false
	}
	switch j.State() {
	case StateDone:
		return j, true
	case StateFailed:
		httpError(w, http.StatusUnprocessableEntity, "job failed: "+j.view().Error)
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, "job not finished")
	}
	return nil, false
}

// handleReport is GET /v1/jobs/{id}/report: the analysis report once the
// job is done; doneJob answers otherwise.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	// One wire form before and after a restart: the report as the job's
	// terminal record carries it, read from the journal unless the job
	// kept it.
	raw := j.keptReport()
	if raw == nil && s.cfg.Store != nil {
		var err error
		if raw, err = s.cfg.Store.JobReport(j.ID); err != nil && !errors.Is(err, store.ErrNotFound) {
			s.cfg.Logger.Error("read report", "job", j.ID, "err", err)
			httpError(w, http.StatusInternalServerError, "report unreadable from the corpus")
			return
		}
	}
	if raw != nil {
		writeRaw(w, raw)
		return
	}
	httpError(w, http.StatusGone, "report not preserved across wolfd restart")
}

// jobTrace returns the job's trace: decoded in memory while it waits or
// runs, else decoded from the WTRC bytes it keeps or from its corpus
// blob. Without one it answers why and reports false: 500 when the
// trace is unreadable, 410 once the job is finished without a stored
// trace, and 409 with Retry-After while the trace is not recorded yet.
func (s *Server) jobTrace(w http.ResponseWriter, j *Job) (*trace.Trace, bool) {
	finished := j.terminal() // first: a finished job's trace stays put
	tr, wtrc, hash := j.traceSource()
	var err error
	switch {
	case tr != nil:
	case wtrc != nil:
		tr, err = trace.ReadBinary(bytes.NewReader(wtrc))
	case hash != "" && s.cfg.Store != nil:
		if tr, err = s.cfg.Store.GetTrace(hash); errors.Is(err, store.ErrNotFound) {
			err = nil
		}
	}
	switch {
	case err != nil:
		s.cfg.Logger.Error("read trace", "job", j.ID, "err", err)
		httpError(w, http.StatusInternalServerError, "trace unreadable: "+err.Error())
	case tr != nil:
		return tr, true
	case finished:
		httpError(w, http.StatusGone, "the job's trace is not stored")
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, "trace not recorded yet")
	}
	return nil, false
}

// handleDot is GET /v1/jobs/{id}/dot?signature=SIG: one defect's Gs as
// Graphviz dot, without a signature the first defect's with one. Jobs
// keep no graphs: core.DefectGraph draws it from the job's trace in an
// analysis slot under JobTimeout (504; 500 on a panic; 410 without the
// trace). No watchdog: the job's own analysis of the trace, a superset
// of this work, already finished within JobTimeout.
func (s *Server) handleDot(w http.ResponseWriter, r *http.Request) {
	j, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	tr, ok := s.jobTrace(w, j)
	if !ok {
		return
	}
	release, ok := s.analysisSlot(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.JobTimeout)
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Logger.Error("dot panicked", "job", j.ID, "panic", fmt.Sprint(p))
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("analysis panicked: %v", p))
		}
	}()
	sig, g, err := core.DefectGraph(ctx, tr, s.cfg.Analysis, r.URL.Query().Get("signature"))
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, fmt.Sprintf("analysis timed out after %v", s.cfg.JobTimeout))
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	case g == nil:
		httpError(w, http.StatusNotFound, "no graph for that defect (pruned, or unknown signature)")
	default:
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		fmt.Fprint(w, g.DOT(sig))
	}
}

// handleTimeline is GET /v1/jobs/{id}/timeline: the job's recorded
// trace rendered as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing. Available as soon as the trace exists (uploads:
// immediately; workload jobs: once an in-process analyzer recorded it),
// and while the job keeps it or the corpus holds its blob; jobTrace
// answers otherwise, as for dot.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	tr, ok := s.jobTrace(w, j)
	if !ok {
		return
	}
	tl := obs.NewTimeline()
	core.TimelineFromTrace(tr, tl, 1)
	// Stamp the job's causal identity into the export: the instant's
	// args carry the trace ID verbatim, so a timeline can be matched
	// back to the request (and the flight-recorder events) that made it.
	if traceID := j.TraceID(); traceID != "" {
		tl.Instant(1, 0, "traceparent", "meta", 0, "g", map[string]any{"trace": traceID, "job": j.ID})
	}
	w.Header().Set("Content-Type", "application/json")
	tl.WriteJSON(w)
}

// corpus guards the corpus endpoints: they only exist with -data-dir.
func (s *Server) corpus(w http.ResponseWriter) (*store.Store, bool) {
	if s.cfg.Store == nil {
		httpError(w, http.StatusServiceUnavailable, "corpus disabled: start wolfd with -data-dir")
		return nil, false
	}
	return s.cfg.Store, true
}

// handleTraceList is GET /v1/traces: every stored trace blob by content
// address.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	st, ok := s.corpus(w)
	if !ok {
		return
	}
	traces := st.Traces()
	if traces == nil {
		traces = []store.TraceInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": traces})
}

// handleTraceGet is GET /v1/traces/{hash}: the stored blob in its
// canonical binary encoding. The body re-hashes to the URL.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.corpus(w)
	if !ok {
		return
	}
	rc, size, err := st.OpenTrace(r.PathValue("hash"))
	if err != nil {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	io.Copy(w, rc)
}

// handleTraceDelete is DELETE /v1/traces/{hash}. Defect records that
// cite the trace keep their (now dangling) reference — the defect was
// still observed.
func (s *Server) handleTraceDelete(w http.ResponseWriter, r *http.Request) {
	st, ok := s.corpus(w)
	if !ok {
		return
	}
	if err := st.DeleteTrace(r.PathValue("hash")); err != nil {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleTraceReplay is POST /v1/traces/{hash}/replay: re-enqueue
// analysis of a stored trace, e.g. after the analysis pipeline improved
// or to regenerate a rehydrated job's graphs.
func (s *Server) handleTraceReplay(w http.ResponseWriter, r *http.Request) {
	st, ok := s.corpus(w)
	if !ok {
		return
	}
	hash := r.PathValue("hash")
	tr, err := st.GetTrace(hash)
	if err != nil {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	j := s.jobs.add("replay:"+hash[:12], ingestTraceparent(w, r), tr)
	j.setTraceHash(hash)
	s.admit(w, j)
}

// defectsMaxLimit caps one page of GET /v1/defects.
const defectsMaxLimit = 1000

// handleDefects is GET /v1/defects: aggregated defect records, filtered
// and paginated. With no parameters it keeps the pre-query behavior
// (most occurrences first) except for the default page cap of 100.
// Filters: class, workload, method, since/until (RFC 3339),
// min_occurrences. sort is occurrences|last_seen|first_seen|rank;
// limit (<=1000) and offset page through the sorted match set, whose
// size is returned as total.
func (s *Server) handleDefects(w http.ResponseWriter, r *http.Request) {
	st, ok := s.corpus(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	opts := store.QueryOptions{
		Class:    q.Get("class"),
		Workload: q.Get("workload"),
		Method:   q.Get("method"),
		Sort:     q.Get("sort"),
		Limit:    100,
	}
	if !store.ValidSort(opts.Sort) {
		httpError(w, http.StatusBadRequest, "invalid sort")
		return
	}
	var err error
	if opts.Since, err = parseTimeParam(q.Get("since")); err != nil {
		httpError(w, http.StatusBadRequest, "invalid since")
		return
	}
	if opts.Until, err = parseTimeParam(q.Get("until")); err != nil {
		httpError(w, http.StatusBadRequest, "invalid until")
		return
	}
	if v := q.Get("min_occurrences"); v != "" {
		if opts.MinOccurrences, err = strconv.Atoi(v); err != nil || opts.MinOccurrences < 0 {
			httpError(w, http.StatusBadRequest, "invalid min_occurrences")
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		if opts.Limit, err = strconv.Atoi(v); err != nil || opts.Limit < 1 {
			httpError(w, http.StatusBadRequest, "invalid limit")
			return
		}
	}
	if opts.Limit > defectsMaxLimit {
		opts.Limit = defectsMaxLimit
	}
	if v := q.Get("offset"); v != "" {
		if opts.Offset, err = strconv.Atoi(v); err != nil || opts.Offset < 0 {
			httpError(w, http.StatusBadRequest, "invalid offset")
			return
		}
	}
	res := st.Query(opts)
	if res.Defects == nil {
		res.Defects = []store.DefectRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"defects": res.Defects,
		"total":   res.Total,
		"limit":   opts.Limit,
		"offset":  opts.Offset,
	})
}

// parseTimeParam parses an optional RFC 3339 query parameter.
func parseTimeParam(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339, v)
}

// handleDefect is GET /v1/defects/{fp}: one defect record by full or
// short (12-hex-char) fingerprint.
func (s *Server) handleDefect(w http.ResponseWriter, r *http.Request) {
	st, ok := s.corpus(w)
	if !ok {
		return
	}
	fp := r.PathValue("fp")
	if d, found := st.Defect(fp); found {
		writeJSON(w, http.StatusOK, d)
		return
	}
	// Short-form lookup: unique prefix match.
	if len(fp) >= 12 {
		var match *store.DefectRecord
		for _, d := range st.Defects() {
			if strings.HasPrefix(d.Fingerprint, fp) {
				if match != nil {
					httpError(w, http.StatusConflict, "fingerprint prefix is ambiguous")
					return
				}
				match = d
			}
		}
		if match != nil {
			writeJSON(w, http.StatusOK, match)
			return
		}
	}
	httpError(w, http.StatusNotFound, "no such defect")
}

// handleVersion is GET /version: build information.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.ReadBuildInfo())
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, s.table.counts(), s.coordinator())
	if s.cfg.Store != nil {
		s.cfg.Store.WritePrometheus(w)
	}
}

// coordinator reports whether remote analyzers run the work.
func (s *Server) coordinator() bool { return s.cfg.Role == RoleCoordinator }

// role names the server's fleet role for status surfaces.
func (s *Server) role() string {
	if s.coordinator() {
		return "coordinator"
	}
	return "single"
}

// handleHealthz is GET /healthz: 200 while accepting work, 503 during
// shutdown. The body shares its shape with the planned fleet heartbeat:
// probes and a future coordinator read the same queue/stream/build
// rollup.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	closed := s.table.draining()
	status := http.StatusOK
	state := "ok"
	if closed {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	c := s.table.counts()
	body := map[string]any{
		"status":       state,
		"draining":     closed,
		"role":         s.role(),
		"queue_depth":  c.depth,
		"streams_open": s.metrics.StreamsOpen.Load(),
		"version":      obs.ReadBuildInfo().Version,
	}
	if s.coordinator() {
		body["nodes"] = len(c.nodes)
		body["nodes_alive"] = c.alive
		body["jobs_leased"] = c.leased
	}
	writeJSON(w, status, body)
}

// Metrics exposes the registry (for the binary's logs and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// writeJSON renders v with the right headers.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeRaw answers 200 with a JSON body already encoded.
func writeRaw(w http.ResponseWriter, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// httpError renders a JSON error body.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
