package server

// Streaming ingestion: the /v1/streams API. A client opens a stream,
// appends WTRC bytes in arbitrary chunks, and receives cycle candidates
// in each chunk response the moment their closing acquisition decodes —
// the incremental counterpart of POST /v1/traces. Closing a stream
// assembles the decoded trace and hands it to the normal job pipeline,
// so reports, fingerprints and corpus records are byte-identical to the
// batch path.
//
//	POST   /v1/streams             open a stream → 201 + id
//	POST   /v1/streams/{id}/chunks append bytes → 200 + new candidates
//	GET    /v1/streams/{id}        stream status
//	POST   /v1/streams/{id}/close  finalize into a job → 202 + job
//	DELETE /v1/streams/{id}        abort and discard
//
// Streams are a bounded resource: at most MaxOpenStreams are open at
// once (429 + Retry-After beyond that), idle streams are evicted by a
// janitor after StreamIdleTimeout, and each stream's decoder enforces
// StreamMemBudget (413 on breach). Every terminal path — close, abort,
// idle eviction, decode error, shutdown — releases the slot exactly
// once.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wolf/internal/obs"
	"wolf/internal/stream"
	"wolf/internal/trace"
)

// streamSession is one open stream: a suspended decoder, the
// incremental engine fed from it, and bookkeeping for eviction.
type streamSession struct {
	ID      string
	created time.Time
	rec     *obs.Recorder
	// trace is the W3C trace ID from the opening request (minted when
	// absent), stamped on every chunk span, log line and event the
	// stream produces — and inherited by the job its close creates.
	trace string
	// source is the client-declared origin from the open request's
	// metadata body ("sim", "wolfsync", ...; "unknown" when absent),
	// the label on wolfd_streams_opened_total.
	source string

	mu    sync.Mutex
	last  time.Time
	dec   *trace.Decoder
	eng   *stream.Engine
	armed bool // engine clocks set from the stream header
	cands int  // candidates emitted so far
	gone  bool // removed from the registry; session is dead
}

// StreamView is the wire form of a stream's status.
type StreamView struct {
	ID         string    `json:"id"`
	Trace      string    `json:"trace,omitempty"`
	Source     string    `json:"source"`
	Created    time.Time `json:"created"`
	Bytes      int64     `json:"bytes"`
	Events     int       `json:"events"`
	Candidates int       `json:"candidates"`
	Done       bool      `json:"done"`
	Mem        int       `json:"mem"`
	Peak       int       `json:"peak"`
	Budget     int       `json:"budget"`
}

// view snapshots the session under its lock.
func (ss *streamSession) view(budget int) StreamView {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return StreamView{
		ID:         ss.ID,
		Trace:      ss.trace,
		Source:     ss.source,
		Created:    ss.created,
		Bytes:      ss.dec.BytesIn(),
		Events:     ss.eng.Events(),
		Candidates: ss.cands,
		Done:       ss.dec.Done(),
		Mem:        ss.dec.Mem(),
		Peak:       ss.dec.Peak(),
		Budget:     budget,
	}
}

// streamStore is the registry of open streams.
type streamStore struct {
	mu  sync.Mutex
	seq int
	m   map[string]*streamSession
}

func newStreamStore() *streamStore {
	return &streamStore{m: make(map[string]*streamSession)}
}

// open admits a new stream unless max are already open.
func (st *streamStore) open(max, budget int, traceID, source string) (*streamSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.m) >= max {
		return nil, false
	}
	st.seq++
	now := time.Now()
	ss := &streamSession{
		ID:      fmt.Sprintf("s-%06d", st.seq),
		created: now,
		last:    now,
		rec:     obs.NewRecorder(),
		trace:   traceID,
		source:  source,
		dec:     trace.NewDecoder(budget),
		eng:     stream.NewEngine(),
	}
	st.m[ss.ID] = ss
	return ss, true
}

func (st *streamStore) get(id string) (*streamSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.m[id]
	return ss, ok
}

func (st *streamStore) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.m, id)
}

// snapshot returns the open sessions for janitor scans.
func (st *streamStore) snapshot() []*streamSession {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*streamSession, 0, len(st.m))
	for _, ss := range st.m {
		out = append(out, ss)
	}
	return out
}

// dropStream retires a session exactly once: marks it dead, frees its
// slot, and folds its byte count into the per-stream size histogram.
// reason is the eviction label ("" for a normal close, which is not an
// eviction). Callers must not hold ss.mu.
func (s *Server) dropStream(ss *streamSession, reason string) bool {
	ss.mu.Lock()
	if ss.gone {
		ss.mu.Unlock()
		return false
	}
	ss.gone = true
	bytes := ss.dec.BytesIn()
	ss.mu.Unlock()
	s.streams.remove(ss.ID)
	s.metrics.StreamsOpen.Add(-1)
	s.metrics.StreamBytes.ObserveValue(bytes)
	if reason != "" {
		s.metrics.StreamEvicted.Add(reason, 1)
		s.cfg.Logger.Info("stream evicted", "stream", ss.ID, "trace", ss.trace,
			"reason", reason, "bytes", bytes)
		s.event(obs.Event{Kind: evStreamEvict, Stream: ss.ID, Trace: ss.trace,
			Msg: reason, Attrs: map[string]string{"reason": reason}})
	}
	return true
}

// evictIdleStreams drops every stream idle for longer than
// StreamIdleTimeout as of now.
func (s *Server) evictIdleStreams(now time.Time) {
	for _, ss := range s.streams.snapshot() {
		ss.mu.Lock()
		idle := now.Sub(ss.last) > s.cfg.StreamIdleTimeout
		ss.mu.Unlock()
		if idle {
			s.dropStream(ss, "idle")
		}
	}
}

// handleStreamOpen is POST /v1/streams: admit a stream or shed load.
func (s *Server) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	if s.table.draining() {
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	traceID := ingestTraceparent(w, r)
	source, err := ingestStreamMeta(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	budget := int(s.cfg.StreamMemBudget)
	ss, ok := s.streams.open(s.cfg.MaxOpenStreams, budget, traceID, source)
	if !ok {
		s.metrics.StreamsRejected.Add(1)
		s.event(obs.Event{Kind: evStreamShed, Trace: traceID, Msg: "too many open streams"})
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("too many open streams (max %d)", s.cfg.MaxOpenStreams))
		return
	}
	s.metrics.StreamsOpen.Add(1)
	s.metrics.StreamsOpened.Add(source, 1)
	s.cfg.Logger.Info("stream opened", "stream", ss.ID, "trace", ss.trace, "source", source)
	s.event(obs.Event{Kind: evStreamOpen, Stream: ss.ID, Trace: ss.trace,
		Attrs: map[string]string{"source": source}})
	w.Header().Set("Location", "/v1/streams/"+ss.ID)
	writeJSON(w, http.StatusCreated, ss.view(budget))
}

// ingestStreamMeta reads the optional JSON metadata body of a stream
// open ({"source": "sim" | "wolfsync" | ...}). An empty body is fine
// (clients predating the field, curl) and yields "unknown"; a body
// that is present but not valid JSON is a client error. The source is
// a metrics label, so it is clamped to a small safe alphabet rather
// than trusted.
func ingestStreamMeta(w http.ResponseWriter, r *http.Request) (string, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4096))
	if err != nil {
		return "", fmt.Errorf("read stream metadata: %v", err)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return "unknown", nil
	}
	var meta struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		return "", fmt.Errorf("stream metadata: %v", err)
	}
	return sanitizeSource(meta.Source), nil
}

// sanitizeSource clamps a client-declared source to a label-safe
// token: lowercase letters, digits, '-', '_', at most 32 bytes.
// Anything else collapses to "unknown" — a label cardinality bound,
// not a validation error.
func sanitizeSource(s string) string {
	if s == "" || len(s) > 32 {
		return "unknown"
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' && c != '_' {
			return "unknown"
		}
	}
	return s
}

// chunkResponse answers one append: running totals plus the candidates
// whose cycles this chunk closed.
type chunkResponse struct {
	ID         string             `json:"id"`
	Bytes      int64              `json:"bytes"`
	Events     int                `json:"events"`
	Candidates int                `json:"candidates"`
	Done       bool               `json:"done"`
	New        []stream.Candidate `json:"new,omitempty"`
}

// handleStreamChunk is POST /v1/streams/{id}/chunks: feed bytes through
// the suspended decoder, drain completed tuples into the engine, and
// return any cycles that just closed. Appends to one stream are
// serialized by the session lock; distinct streams proceed in parallel.
func (s *Server) handleStreamChunk(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such stream")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "chunk exceeds upload limit")
		} else {
			httpError(w, http.StatusBadRequest, "read chunk: "+err.Error())
		}
		return
	}

	ss.mu.Lock()
	if ss.gone {
		ss.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such stream")
		return
	}
	ss.last = time.Now()
	_, sp := obs.Start(obs.WithTrace(obs.WithRecorder(r.Context(), ss.rec), ss.trace, ""), "stream.chunk")
	sp.Add("bytes", int64(len(data)))
	werr := ss.dec.Write(data)
	var resp chunkResponse
	if werr == nil {
		if !ss.armed && ss.dec.HeaderDone() {
			ss.eng.SetClocks(ss.dec.Clocks())
			ss.armed = true
		}
		events := ss.dec.Events()
		var cands []stream.Candidate
		for _, tp := range events {
			cands = append(cands, ss.eng.Add(tp)...)
		}
		ss.cands += len(cands)
		sp.Add("events", int64(len(events)))
		sp.Add("candidates", int64(len(cands)))
		s.metrics.StreamEvents.Add(int64(len(events)))
		s.metrics.StreamCandidates.Add(int64(len(cands)))
		resp = chunkResponse{
			ID:         ss.ID,
			Bytes:      ss.dec.BytesIn(),
			Events:     ss.eng.Events(),
			Candidates: ss.cands,
			Done:       ss.dec.Done(),
			New:        cands,
		}
	}
	sp.End()
	ss.mu.Unlock()

	if werr != nil {
		s.rejectTrace(w, werr, ss)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStreamGet is GET /v1/streams/{id}.
func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such stream")
		return
	}
	writeJSON(w, http.StatusOK, ss.view(int(s.cfg.StreamMemBudget)))
}

// handleStreamClose is POST /v1/streams/{id}/close: assemble the
// decoded trace and enqueue it as a normal job — from here on the
// stream is indistinguishable from a batch upload, which is what makes
// its report fingerprints byte-identical to POST /v1/traces.
func (s *Server) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such stream")
		return
	}
	ss.mu.Lock()
	if ss.gone {
		ss.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such stream")
		return
	}
	ss.last = time.Now()
	_, sp := obs.Start(obs.WithTrace(obs.WithRecorder(r.Context(), ss.rec), ss.trace, ""), "stream.finalize")
	tr, err := ss.dec.Finalize()
	sp.Add("events", int64(ss.eng.Events()))
	sp.End()
	bytes, cands := ss.dec.BytesIn(), ss.cands
	ss.mu.Unlock()

	if err != nil {
		s.rejectTrace(w, err, ss)
		return
	}
	if len(tr.Tuples) == 0 {
		s.dropStream(ss, "empty")
		httpError(w, http.StatusBadRequest, "bad trace: no lock acquisitions recorded")
		return
	}
	s.dropStream(ss, "")
	s.cfg.Logger.Info("stream closed", "stream", ss.ID, "trace", ss.trace,
		"bytes", bytes, "events", len(tr.Tuples), "candidates", cands)
	s.event(obs.Event{Kind: evStreamClose, Stream: ss.ID, Trace: ss.trace,
		Attrs: map[string]string{
			"bytes":      strconv.FormatInt(bytes, 10),
			"events":     strconv.Itoa(len(tr.Tuples)),
			"candidates": strconv.Itoa(cands),
		}})
	// The finalized job inherits the stream's causal identity, so the
	// whole ingest→analyze→report arc shares one trace ID.
	j := s.jobs.add("stream:"+ss.ID, ss.trace, tr)
	s.archiveTrace(r.Context(), j, tr)
	s.admit(w, j)
}

// handleStreamDelete is DELETE /v1/streams/{id}: abort and discard.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such stream")
		return
	}
	s.dropStream(ss, "aborted")
	w.WriteHeader(http.StatusNoContent)
}
