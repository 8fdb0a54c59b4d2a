package server

// The ops surface: causal trace ingestion, the daemon-wide flight
// recorder, and the two endpoints operators drive:
//
//	GET /v1/status        one-shot rollup: uptime, build, queue, workers,
//	                      streams, sliding-window error rate, per-stage
//	                      latency quantiles, corpus counts
//	GET /v1/debug/events  flight-recorder snapshot (?kind= ?job= ?stream=
//	                      ?trace= ?since=), or a live SSE tail (?follow=1)
//
// Every work-creating request (POST /v1/traces, /v1/workloads/{name},
// /v1/streams, /v1/traces/{hash}/replay, /v1/analyze) ingests the W3C
// `traceparent` header — minting a trace ID when absent — and echoes it
// back, so one client-supplied ID correlates the job record, pipeline
// spans, slog lines, flight-recorder events and the timeline export.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"wolf/internal/obs"
)

// Flight-recorder event kinds. These are the closed vocabulary behind
// /v1/debug/events?kind= and the wolfd_events_total{kind=...} metric;
// keep them lowercase dot-namespaced so the label values stay
// exposition-clean.
const (
	evJobQueued     = "job.queued"
	evJobStarted    = "job.started"
	evJobDone       = "job.done"
	evJobFailed     = "job.failed"
	evJobShed       = "job.shed"
	evSyncShed      = "sync.shed"
	evStreamOpen    = "stream.open"
	evStreamClose   = "stream.close"
	evStreamEvict   = "stream.evict"
	evStreamShed    = "stream.shed"
	evStoreTrace    = "store.trace"
	evStoreDefect   = "store.defect"
	evStoreGC       = "store.gc"
	evReplayVerdict = "replay.verdict"
	// Fleet lifecycle (coordinator role): analyzer nodes joining and
	// being declared lost, and jobs re-queued after a revoked lease.
	evNodeJoin      = "node.join"
	evNodeLost      = "node.lost"
	evJobReassigned = "job.reassigned"
)

// event publishes one lifecycle event to the flight recorder and bumps
// its kind counter. Timestamping and sequence assignment happen inside
// the ring; this helper is safe from any goroutine.
func (s *Server) event(ev obs.Event) {
	s.flight.Record(ev)
	s.metrics.Events.Add(ev.Kind, 1)
}

// jobEvent publishes a lifecycle event stamped with the job's identity.
func (s *Server) jobEvent(kind string, j *Job, msg string, attrs map[string]string) {
	s.event(obs.Event{Kind: kind, Job: j.ID, Trace: j.TraceID(), Msg: msg, Attrs: attrs})
}

// ingestTraceparent resolves the request's causal identity: a valid
// W3C traceparent header supplies the trace ID, anything else mints a
// fresh one (per spec, invalid headers are ignored, not rejected). The
// response always echoes a traceparent carrying that trace ID, so
// clients learn the ID wolfd minted for them.
func ingestTraceparent(w http.ResponseWriter, r *http.Request) string {
	traceID, _, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if err != nil {
		traceID = obs.NewTraceID()
	}
	w.Header().Set("Traceparent", obs.FormatTraceparent(traceID, obs.NewSpanID()))
	return traceID
}

// StatusView is the wire form of GET /v1/status: everything a probe,
// a fleet heartbeat or an operator's first glance needs in one shot.
type StatusView struct {
	Status string `json:"status"`
	// Role is "single" or "coordinator"; Fleet summarizes the node and
	// lease state in coordinator mode.
	Role          string           `json:"role"`
	Fleet         *FleetStatusView `json:"fleet,omitempty"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Build         obs.BuildInfo    `json:"build"`
	Queue         struct {
		Depth    int64 `json:"depth"`
		Capacity int   `json:"capacity"`
	} `json:"queue"`
	Workers struct {
		Total int   `json:"total"`
		Busy  int64 `json:"busy"`
	} `json:"workers"`
	Streams struct {
		Open int64 `json:"open"`
		Max  int   `json:"max"`
	} `json:"streams"`
	Jobs struct {
		Accepted  int64 `json:"accepted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Rejected  int64 `json:"rejected"`
	} `json:"jobs"`
	// ErrorWindow is the job failure rate over the trailing window,
	// derived from flight-recorder terminal events (so it is bounded by
	// the ring's retention, not an unbounded log).
	ErrorWindow struct {
		Seconds float64 `json:"seconds"`
		Done    int     `json:"done"`
		Failed  int     `json:"failed"`
		Rate    float64 `json:"rate"`
	} `json:"error_window"`
	// Latency reports per-stage p50/p95/p99 in seconds, derived from
	// the same histograms /metrics exposes.
	Latency map[string]LatencyView `json:"latency"`
	Corpus  *CorpusView            `json:"corpus,omitempty"`
	Events  struct {
		Seq      uint64 `json:"seq"`
		Capacity int    `json:"capacity"`
	} `json:"events"`
}

// LatencyView is one stage's quantile summary, in seconds.
type LatencyView struct {
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Count uint64  `json:"count"`
}

// FleetStatusView summarizes the coordinator's fleet: known/alive
// nodes, jobs currently out under lease, and pending: queued jobs with
// a prior delivery (reassigned or re-offered), which queue.depth also
// counts.
type FleetStatusView struct {
	Nodes      int   `json:"nodes"`
	Alive      int   `json:"alive"`
	Leased     int   `json:"leased"`
	Pending    int   `json:"pending"`
	Reassigned int64 `json:"reassigned"`
}

// CorpusView summarizes the persistent corpus (absent without -data-dir).
type CorpusView struct {
	Traces  int   `json:"traces"`
	Bytes   int64 `json:"bytes"`
	Defects int   `json:"defects"`
	Jobs    int   `json:"jobs"`
}

// latencyView snapshots one histogram's quantiles.
func latencyView(h *obs.Histogram) LatencyView {
	return LatencyView{
		P50:   h.Quantile(0.50).Seconds(),
		P95:   h.Quantile(0.95).Seconds(),
		P99:   h.Quantile(0.99).Seconds(),
		Count: h.Count(),
	}
}

// errorWindowSeconds is the trailing window for /v1/status error rates.
const errorWindowSeconds = 300

// handleStatus is GET /v1/status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var v StatusView
	v.Status = "ok"
	if s.table.draining() {
		v.Status = "draining"
	}
	v.Role = s.role()
	c := s.table.counts()
	if s.coordinator() {
		v.Fleet = &FleetStatusView{
			Nodes:      len(c.nodes),
			Alive:      c.alive,
			Leased:     c.leased,
			Pending:    c.pending,
			Reassigned: s.metrics.JobsReassigned.Load(),
		}
	}
	v.UptimeSeconds = time.Since(s.started).Seconds()
	v.Build = obs.ReadBuildInfo()
	v.Queue.Depth = int64(c.depth)
	v.Queue.Capacity = s.cfg.QueueSize
	v.Workers.Total = s.cfg.Workers
	v.Workers.Busy = int64(c.busy)
	v.Streams.Open = s.metrics.StreamsOpen.Load()
	v.Streams.Max = s.cfg.MaxOpenStreams
	v.Jobs.Accepted = s.metrics.JobsAccepted.Load()
	v.Jobs.Completed = s.metrics.JobsCompleted.Load()
	v.Jobs.Failed = s.metrics.JobsFailed()
	v.Jobs.Rejected = s.metrics.JobsRejected.Load()

	v.ErrorWindow.Seconds = errorWindowSeconds
	cutoff := time.Now().Add(-errorWindowSeconds * time.Second)
	for _, ev := range s.flight.Snapshot() {
		if ev.Time.Before(cutoff) {
			continue
		}
		switch ev.Kind {
		case evJobDone:
			v.ErrorWindow.Done++
		case evJobFailed:
			v.ErrorWindow.Failed++
		}
	}
	if total := v.ErrorWindow.Done + v.ErrorWindow.Failed; total > 0 {
		v.ErrorWindow.Rate = float64(v.ErrorWindow.Failed) / float64(total)
	}

	v.Latency = map[string]LatencyView{
		"queue_wait": latencyView(&s.metrics.QueueWait),
		"detect":     latencyView(&s.metrics.PhaseDetect),
		"prune":      latencyView(&s.metrics.PhasePrune),
		"generate":   latencyView(&s.metrics.PhaseGenerate),
		"analysis":   latencyView(&s.metrics.Analysis),
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		v.Corpus = &CorpusView{Traces: st.Traces, Bytes: st.TraceBytes, Defects: st.Defects, Jobs: st.Jobs}
	}
	v.Events.Seq = s.flight.Seq()
	v.Events.Capacity = s.flight.Cap()
	writeJSON(w, http.StatusOK, v)
}

// eventFilter is the compiled ?kind= ?job= ?stream= ?trace= selection.
type eventFilter struct {
	kind, job, stream, trace string
}

func (f eventFilter) match(ev obs.Event) bool {
	return (f.kind == "" || ev.Kind == f.kind) &&
		(f.job == "" || ev.Job == f.job) &&
		(f.stream == "" || ev.Stream == f.stream) &&
		(f.trace == "" || ev.Trace == f.trace)
}

// handleDebugEvents is GET /v1/debug/events: a filtered snapshot of the
// flight recorder, or — with ?follow=1 — a Server-Sent Events live tail
// (`id:` carries the sequence number, `data:` the event JSON) that runs
// until the client disconnects or the server drains.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := eventFilter{
		kind:   q.Get("kind"),
		job:    q.Get("job"),
		stream: q.Get("stream"),
		trace:  q.Get("trace"),
	}
	var since uint64
	if v := q.Get("since"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad since: want a sequence number")
			return
		}
		since = parsed
	}
	if q.Get("follow") == "1" {
		s.followEvents(w, r, f, since)
		return
	}
	events := []obs.Event{}
	for _, ev := range s.flight.Since(since) {
		if f.match(ev) {
			events = append(events, ev)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": events, "seq": s.flight.Seq()})
}

// followEvents streams matching flight-recorder events as SSE frames.
// The ring has no subscriber hooks (writers stay lock-free), so the
// tail polls the sequence cursor; each frame is
//
//	id: <seq>\n
//	data: <event JSON>\n
//	\n
//
// which standard EventSource clients and `curl -N` both consume.
func (s *Server) followEvents(w http.ResponseWriter, r *http.Request, f eventFilter, since uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	last := since
	emit := func() bool {
		for _, ev := range s.flight.Since(last) {
			if ev.Seq > last {
				last = ev.Seq
			}
			if !f.match(ev) {
				continue
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, data); err != nil {
				return false
			}
		}
		flusher.Flush()
		return true
	}
	if !emit() {
		return
	}
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case <-tick.C:
			if !emit() {
				return
			}
		}
	}
}
