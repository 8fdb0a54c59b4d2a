// Command wolfd runs the WOLF analysis service: an HTTP API accepting
// trace uploads (JSON or binary, gzip-aware) and serving structured
// deadlock reports from a bounded queue and leased analyzers.
//
// Usage:
//
//	wolfd [-addr :8077] [-workers 4] [-queue 64] [-timeout 30s] [-data]
//	      [-data-dir /var/lib/wolfd] [-max-corpus-bytes N] [-trace-ttl 0]
//	      [-gc-interval 1m] [-max-body 32] [-watchdog-grace 2s]
//	      [-max-streams 64] [-stream-idle 2m] [-stream-budget 16]
//	      [-flight-recorder 4096] [-log-format text|json] [-log-level info]
//	      [-debug-addr localhost:6060]
//	      [-role coordinator|analyzer] [-coordinator URL] [-node-name NAME]
//	      [-lease-ttl 15s] [-heartbeat 3s] [-heartbeat-timeout 10s]
//	      [-max-deliveries 3] [-max-renewals 8] [-poll 500ms]
//
// -data-dir attaches a persistent corpus: uploaded traces are archived
// by content address, finished analyses aggregate into fingerprinted
// defect records, and jobs survive restarts. Without it the server is
// fully in-memory.
//
// Every analysis runs on an analyzer holding the job under a lease.
// Without -role, wolfd runs -workers of them in process. -role=coordinator
// serves the same API but hands analysis to registered analyzer nodes;
// -role=analyzer -coordinator=URL runs one such node, retrying every
// coordinator call with exponential backoff so either side can restart
// without losing work. An idle node's pull waits at the coordinator for
// up to half of -heartbeat-timeout; -poll is only its back-off after a
// failed pull or a 503. -timeout and -watchdog-grace bound every
// analysis, in process or on a node.
//
// Logs are structured (log/slog) and tagged with job IDs; -log-format
// json emits one JSON object per line for log shippers. -debug-addr
// serves net/http/pprof on a separate listener. SIGINT/SIGTERM triggers
// a graceful shutdown: new uploads are refused, in-flight analyses
// finish (or are watchdog-failed), and still-queued jobs are failed
// fast (bounded by -drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wolf/internal/core"
	"wolf/internal/fleet"
	"wolf/internal/obs"
	"wolf/internal/server"
	"wolf/internal/store"
)

// runAnalyzer is the -role=analyzer main: register with the
// coordinator, pull and analyze leased work until SIGINT/SIGTERM, and
// serve a small /healthz listener on addr so fleet members probe
// uniformly.
func runAnalyzer(log *slog.Logger, addr string, cfg fleet.AnalyzerConfig) {
	if cfg.Name == "" {
		cfg.Name, _ = os.Hostname()
	}
	cfg.Logger = log
	a := fleet.NewAnalyzer(cfg)

	httpSrv := &http.Server{Addr: addr, Handler: a.Handler()}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("analyzer health listener failed", "err", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Info("wolfd analyzer starting", "addr", addr,
		"coordinator", cfg.Coordinator, "name", cfg.Name)
	err := a.Run(ctx)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Error("analyzer stopped", "err", err)
		os.Exit(1)
	}
	log.Info("analyzer stopped", "node", a.ID())
}

func main() {
	var (
		addr      = flag.String("addr", ":8077", "listen address")
		workers   = flag.Int("workers", 4, "number of in-process analyzers (single role)")
		queue     = flag.Int("queue", 64, "bounded job queue size (full queue returns 429)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-job analysis timeout")
		drain     = flag.Duration("drain", 60*time.Second, "graceful shutdown drain budget")
		grace     = flag.Duration("watchdog-grace", 2*time.Second, "extra wait past -timeout before an analyzer abandons a stuck analysis")
		maxBody   = flag.Int64("max-body", 32, "maximum decompressed upload size in MiB")
		maxStr    = flag.Int("max-streams", 64, "maximum concurrently open ingestion streams (full returns 429)")
		strIdle   = flag.Duration("stream-idle", 2*time.Minute, "evict ingestion streams idle longer than this")
		strBudget = flag.Int64("stream-budget", 16, "per-stream decoder memory budget in MiB")
		data      = flag.Bool("data", false, "enable the value-flow (data dependency) extension")
		flight    = flag.Int("flight-recorder", 4096, "flight-recorder ring capacity (lifecycle events kept for /v1/debug/events)")
		par       = flag.Int("analysis-parallelism", 0, "per-job Generator worker pool size (0 = GOMAXPROCS, capped; output is identical at any value)")
		dataDir   = flag.String("data-dir", "", "persist traces, jobs and defect records in this directory")
		maxCorpus = flag.Int64("max-corpus-bytes", 0, "trace GC: total stored-trace byte budget (0 = unbounded); unreferenced blobs are pruned oldest-first")
		traceTTL  = flag.Duration("trace-ttl", 0, "trace GC: expire unreferenced trace blobs older than this (0 = never)")
		gcEvery   = flag.Duration("gc-interval", time.Minute, "trace GC: pass cadence when -max-corpus-bytes or -trace-ttl is set")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (for example localhost:6060)")
		version   = flag.Bool("version", false, "print build information and exit")

		role     = flag.String("role", "", "fleet role: empty (single process), coordinator, or analyzer")
		coordURL = flag.String("coordinator", "", "coordinator base URL (required with -role=analyzer)")
		nodeName = flag.String("node-name", "", "analyzer node label (default: hostname)")
		leaseTTL = flag.Duration("lease-ttl", 15*time.Second, "coordinator: work lease duration analyzers must renew within")
		hbEvery  = flag.Duration("heartbeat", 3*time.Second, "coordinator: heartbeat cadence handed to analyzers")
		hbOut    = flag.Duration("heartbeat-timeout", 10*time.Second, "coordinator: silence after which a node is lost and its jobs reassigned")
		maxDeliv = flag.Int("max-deliveries", 3, "coordinator: deliveries per job before it fails with reason reassign-exhausted")
		maxRenew = flag.Int("max-renewals", 8, "coordinator: lease renewals before a job is re-offered to a second node")
		poll     = flag.Duration("poll", 500*time.Millisecond, "analyzer: back-off after a failed pull")
	)
	flag.Parse()

	if *version {
		bi := obs.ReadBuildInfo()
		fmt.Printf("wolfd %s %s", bi.Version, bi.GoVersion)
		if bi.Revision != "" {
			fmt.Printf(" %s", bi.Revision)
		}
		fmt.Println()
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	default:
		fmt.Fprintf(os.Stderr, "bad -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	log := slog.New(handler)

	if *debugAddr != "" {
		obs.ServeDebug(*debugAddr)
		log.Info("pprof enabled", "addr", *debugAddr)
	}

	switch *role {
	case "", "coordinator":
	case "analyzer":
		if *coordURL == "" {
			fmt.Fprintln(os.Stderr, "-role=analyzer requires -coordinator=URL")
			os.Exit(2)
		}
		runAnalyzer(log, *addr, fleet.AnalyzerConfig{
			Coordinator:   *coordURL,
			Name:          *nodeName,
			Poll:          *poll,
			JobTimeout:    *timeout,
			WatchdogGrace: *grace,
			Analysis:      core.Config{DataDependency: *data, Parallelism: *par},
		})
		return
	default:
		fmt.Fprintf(os.Stderr, "bad -role %q (want coordinator or analyzer)\n", *role)
		os.Exit(2)
	}

	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir)
		if err != nil {
			log.Error("open data dir", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		defer st.Close()
		stats := st.Stats()
		warm, openSecs := st.OpenInfo()
		log.Info("corpus opened", "dir", *dataDir,
			"traces", stats.Traces, "defects", stats.Defects, "jobs", stats.Jobs,
			"warm", warm, "open_seconds", fmt.Sprintf("%.3f", openSecs))
	}

	srv := server.New(server.Config{
		Workers:            *workers,
		QueueSize:          *queue,
		JobTimeout:         *timeout,
		WatchdogGrace:      *grace,
		MaxUploadBytes:     *maxBody << 20,
		MaxOpenStreams:     *maxStr,
		StreamIdleTimeout:  *strIdle,
		StreamMemBudget:    *strBudget << 20,
		FlightRecorderSize: *flight,
		Analysis:           core.Config{DataDependency: *data, Parallelism: *par},
		Logger:             log,
		Store:              st,
		MaxCorpusBytes:     *maxCorpus,
		TraceTTL:           *traceTTL,
		GCInterval:         *gcEvery,
		Role:               *role, // server.RoleSingle or RoleCoordinator
		LeaseTTL:           *leaseTTL,
		HeartbeatInterval:  *hbEvery,
		HeartbeatTimeout:   *hbOut,
		MaxDeliveries:      *maxDeliv,
		MaxRenewals:        *maxRenew,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errCh := make(chan error, 1)
	go func() {
		bi := obs.ReadBuildInfo()
		log.Info("wolfd listening", "addr", *addr, "workers", *workers,
			"queue", *queue, "timeout", *timeout,
			"version", bi.Version, "go", bi.GoVersion)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case s := <-sig:
		log.Info("draining", "signal", s.String(), "budget", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Warn("drain incomplete", "err", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Warn("http shutdown", "err", err)
		}
		m := srv.Metrics()
		log.Info("wolfd stopped",
			"accepted", m.JobsAccepted.Load(), "completed", m.JobsCompleted.Load(),
			"failed", m.JobsFailed(), "timeout", m.JobsTimedOut.Load(),
			"panic", m.JobsPanicked.Load(), "rejected", m.JobsRejected.Load())
	}
}
