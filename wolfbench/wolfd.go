package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"wolf/internal/core"
	"wolf/internal/fleet"
	"wolf/internal/obs"
	"wolf/internal/report"
	"wolf/internal/server"
	"wolf/internal/store"
	"wolf/internal/trace"
)

// wolfd is one in-process wolfd, served over loopback HTTP, optionally
// over a corpus and optionally as a coordinator with analyzer nodes.
type wolfd struct {
	cfg    *Config
	dir    string // the corpus root, "" without a corpus
	nodes  int
	st     *store.Store // nil without a corpus
	srv    *server.Server
	hs     *httptest.Server
	base   string
	client *http.Client
	sig    *jobSignals
	hook   *analysisHook // nil unless tracing

	stopNodes context.CancelFunc
	running   sync.WaitGroup
	down      bool
}

// analyzerPoll is the analyzer nodes' idle pull interval. The 500ms
// default suits a real fleet's idle cost; here it would dominate the
// verdict latency of every job that arrives while a node sleeps.
const analyzerPoll = 2 * time.Millisecond

// startWolfd brings wolfd up, over a fresh corpus if corpus is set.
func startWolfd(cfg *Config, nodes int, corpus bool) (*wolfd, error) {
	if !corpus {
		return openWolfd(cfg, "", nodes)
	}
	dir, err := os.MkdirTemp(cfg.Workdir, "corpus-")
	if err != nil {
		return nil, err
	}
	d, err := openWolfd(cfg, dir, nodes)
	if err != nil {
		os.RemoveAll(dir)
	}
	return d, err
}

// reopen brings a shut-down wolfd back up over its corpus, if it has
// one; without one, the new wolfd starts empty.
func (d *wolfd) reopen() (*wolfd, error) { return openWolfd(d.cfg, d.dir, d.nodes) }

// openWolfd brings wolfd up over the corpus in dir, if dir is set: it
// opens the store, which replays the job journal, and serves once every
// analyzer node has joined.
func openWolfd(cfg *Config, dir string, nodes int) (*wolfd, error) {
	var st *store.Store
	if dir != "" {
		var err error
		if st, err = store.Open(dir); err != nil {
			return nil, err
		}
	}
	d := &wolfd{cfg: cfg, dir: dir, nodes: nodes, st: st, sig: &jobSignals{chans: map[string]chan struct{}{}}}
	if cfg.Trace {
		d.hook = &analysisHook{runs: map[string]analysisRun{}}
	}
	scfg := server.Config{Store: st, Logger: slog.New(signalHandler{sig: d.sig})}
	if nodes > 0 {
		scfg.Role = server.RoleCoordinator
	}
	if d.hook != nil {
		scfg.Analyze = d.hook.analyze
	}
	d.srv = server.New(scfg)
	d.hs = httptest.NewServer(d.srv.Handler())
	d.base = d.hs.URL
	d.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stopNodes = cancel
	var analyzers []*fleet.Analyzer
	for i := 0; i < nodes; i++ {
		acfg := fleet.AnalyzerConfig{Coordinator: d.base, Name: fmt.Sprintf("bench-%d", i), Poll: analyzerPoll}
		if d.hook != nil {
			acfg.Analyze = d.hook.analyze
		}
		a := fleet.NewAnalyzer(acfg)
		analyzers = append(analyzers, a)
		d.running.Add(1)
		go func() {
			defer d.running.Done()
			a.Run(ctx)
		}()
	}
	// The bring-up ends once every node has joined the coordinator.
	deadline := time.Now().Add(joinTimeout)
	for _, a := range analyzers {
		for a.ID() == "" {
			if time.Now().After(deadline) {
				d.shutdown()
				return nil, fmt.Errorf("analyzer nodes did not join within %v", joinTimeout)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return d, nil
}

// joinTimeout bounds the wait for analyzer nodes to register.
const joinTimeout = 10 * time.Second

// Close shuts wolfd down and deletes its corpus.
func (d *wolfd) Close() {
	d.shutdown()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// shutdown stops the analyzer nodes and the server and closes the
// store, which snapshots its index. Only the first call does anything.
func (d *wolfd) shutdown() {
	if d.down {
		return
	}
	d.down = true
	d.stopNodes()
	d.running.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	d.hs.Close()
	d.client.CloseIdleConnections()
	if d.st != nil {
		d.st.Close()
	}
}

// do sends one request and decodes a JSON answer with the wanted
// status into out (nil skips decoding).
func (d *wolfd) do(method, path string, body []byte, hdr map[string]string, want int, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// jobView is the part of wolfd's job view the benchmark reads.
type jobView struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	TraceHash string `json:"trace_hash"`
	Error     string `json:"error"`
	Created   string `json:"created"`
	Started   string `json:"started"`
	Finished  string `json:"finished"`
}

// backstopPoll bounds the wait for a job when no log signal arrives.
const backstopPoll = 20 * time.Millisecond

// waitJob blocks until the job is terminal and returns its view and,
// for a finished job, its report. wolfd logs every job transition; the
// log handler turns those lines into wake-ups so the client does not
// have to poll at a rate that would steal the server's CPU.
func (d *wolfd) waitJob(id string) (jobView, *report.JSONReport, error) {
	ch := d.sig.ch(id)
	defer d.sig.forget(id)
	timer := time.NewTimer(backstopPoll)
	defer timer.Stop()
	for {
		var v jobView
		if err := d.do(http.MethodGet, "/v1/jobs/"+id, nil, nil, http.StatusOK, &v); err != nil {
			return v, nil, err
		}
		switch v.State {
		case "failed":
			return v, nil, fmt.Errorf("job %s failed: %s", id, v.Error)
		case "done":
			var rep report.JSONReport
			err := d.do(http.MethodGet, "/v1/jobs/"+id+"/report", nil, nil, http.StatusOK, &rep)
			return v, &rep, err
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(backstopPoll)
		select {
		case <-ch:
		case <-timer.C:
		}
	}
}

// jobSignals hands out one wake-up channel per job.
type jobSignals struct {
	mu    sync.Mutex
	chans map[string]chan struct{}
}

func (s *jobSignals) ch(job string) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chans[job]
	if c == nil {
		c = make(chan struct{}, 1)
		s.chans[job] = c
	}
	return c
}

func (s *jobSignals) forget(job string) {
	s.mu.Lock()
	delete(s.chans, job)
	s.mu.Unlock()
}

// notify wakes the job's waiter, if any. A line logged before the
// waiter registered needs no wake-up: the waiter reads the job state
// after registering.
func (s *jobSignals) notify(job string) {
	s.mu.Lock()
	c := s.chans[job]
	s.mu.Unlock()
	if c == nil {
		return
	}
	select {
	case c <- struct{}{}:
	default:
	}
}

// signalHandler is wolfd's slog handler in the benchmark: it drops
// every line and wakes the waiter of the job the line names. Its level
// matches wolfd's default handler, so the server logs exactly as much.
type signalHandler struct {
	sig *jobSignals
	job string
}

func (h signalHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }

func (h signalHandler) Handle(_ context.Context, r slog.Record) error {
	job := h.job
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "job" {
			job = a.Value.String()
			return false
		}
		return true
	})
	if job != "" {
		h.sig.notify(job)
	}
	return nil
}

func (h signalHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	for _, a := range attrs {
		if a.Key == "job" {
			h.job = a.Value.String()
		}
	}
	return h
}

func (h signalHandler) WithGroup(string) slog.Handler { return h }

// analysisHook wraps wolfd's analysis function when tracing: it keeps
// the pipeline's spans and the analysis start and end per trace ID.
type analysisHook struct {
	mu   sync.Mutex
	runs map[string]analysisRun
}

type analysisRun struct {
	start, end                     time.Time
	reduce, search, prune, gsBuild time.Duration
}

func (h *analysisHook) analyze(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
	traceID, _ := obs.TraceFrom(ctx)
	rec := obs.NewRecorder()
	start := time.Now()
	rep, err := core.AnalyzeTraceCtx(obs.WithRecorder(ctx, rec), tr, cfg)
	run := analysisRun{
		start:   start,
		end:     time.Now(),
		reduce:  rec.Sum("detect.reduce"),
		search:  rec.Sum("detect.search"),
		prune:   rec.Sum("prune"),
		gsBuild: rec.Sum("generate"),
	}
	h.mu.Lock()
	h.runs[traceID] = run
	h.mu.Unlock()
	return rep, err
}

func (h *analysisHook) take(traceID string) (analysisRun, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	run, ok := h.runs[traceID]
	delete(h.runs, traceID)
	return run, ok
}

// traceIDFor is the W3C trace ID of one operation: unique per run and
// op, so the analysis hook can attribute its spans.
func traceIDFor(seed int64, c, i int) string {
	return fmt.Sprintf("%016x%08x%08x", uint64(seed)+1, uint32(c)+1, uint32(i)+1)
}

func traceparent(traceID string) string { return obs.FormatTraceparent(traceID, "00f067aa0ba902b7") }

// fillLayers derives an operation's latency and layer parts from its client-side
// timestamps, its job view and, when tracing, the analysis hook.
func (d *wolfd) fillLayers(s *Sample, traceID string, start, recorded time.Time, v jobView) error {
	finished, err := time.Parse(time.RFC3339Nano, v.Finished)
	if err != nil {
		return fmt.Errorf("job %s: finished time: %w", v.ID, err)
	}
	s.Latency = finished.Sub(start)
	if d.hook == nil {
		return nil
	}
	run, ok := d.hook.take(traceID)
	if !ok {
		return fmt.Errorf("job %s: no analysis recorded for trace %s", v.ID, traceID)
	}
	created, err1 := time.Parse(time.RFC3339Nano, v.Created)
	started, err2 := time.Parse(time.RFC3339Nano, v.Started)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("job %s: bad timestamps %q %q", v.ID, v.Created, v.Started)
	}
	s.Layers[LRecord] = recorded.Sub(start)
	s.Layers[LDeliver] = run.start.Sub(recorded)
	s.Layers[LReduce] = run.reduce
	s.Layers[LSearch] = run.search
	s.Layers[LPrune] = run.prune
	s.Layers[LGsBuild] = run.gsBuild
	s.Layers[LSettle] = finished.Sub(run.end)
	s.Detail = [3]time.Duration{created.Sub(recorded), started.Sub(created), run.start.Sub(started)}
	return nil
}

// wolfdDetail names the Sample.Detail parts of the wolfd workloads.
var wolfdDetail = []string{"recorded->admitted", "admitted->started", "started->analysis"}

// verdict is the part of a report the benchmark compares: every defect
// with its class, and every cycle's fingerprint with its class.
type verdict []string

func verdictOf(rep *report.JSONReport) verdict {
	var v verdict
	for _, d := range rep.Defects {
		v = append(v, "defect "+d.Signature+" "+d.Class)
	}
	for _, c := range rep.Cycles {
		v = append(v, "cycle "+c.Fingerprint+" "+c.Class)
	}
	sort.Strings(v)
	return v
}

// referenceVerdict is the batch pipeline's verdict on tr, computed in
// process: the reference every front door must reproduce.
func referenceVerdict(tr *trace.Trace) verdict {
	return verdictOf(report.FromCore(core.AnalyzeTrace(tr, core.Config{})))
}
