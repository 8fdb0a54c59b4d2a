// Command wolfbench measures WOLF end to end and layer by layer.
//
// Every operation is one recorded execution that ends in a verdict: a
// program runs under a recorder, its trace is analyzed, and the cycles
// it contains are classified. The workloads differ in how the trace
// travels from the recorder to the verdict:
//
//	upload    sim recording, POST /v1/traces to single-process wolfd
//	stream    as upload, through POST /v1/streams in 1 KiB chunks
//	fleet     as upload, to a coordinator that hands the analysis to
//	          two in-process analyzer nodes
//	wolfsync  a real Go program on wolfsync mutexes, shipped live to
//	          wolfd, with a corpus under -workdir, by the recorder's
//	          stream sink when it stops
//	table1    the paper's Table 1 rows (all but Jigsaw) through the full
//	          WOLF and DeadlockFuzzer pipelines in process, replay included
//
// The wolfd workloads run a real server in process and drive it over
// loopback HTTP from one closed-loop client. Every verdict is checked
// against the batch pipeline run in process, and every table1 row
// against the paper's counts.
//
// A run brings the system up and warms it with a fixed number of
// operations, which also prove the path: an error there fails the run. It then restarts the system several times over
// the state the warm-up left, as an operator restarts wolfd, and
// measures for the given seconds.
//
// End-to-end metrics (-trace 0). cpu_ms_per_verdict is the process's
// CPU time (user and system, all goroutines: recorder, client, server
// and analyzers) over the window, per finished operation: what a
// verdict costs the host. setup_s is the median restart time: wolfd
// bringing itself up (reopening its corpus and replaying its job
// journal, where it has one) and serving again with its analyzer nodes
// joined; on table1, the Table 1 seed search. The readable report adds
// the verdict latency's p50, p90 and p99 (from the start of the
// recorded execution to the moment wolfd marks the job finished) and
// the throughput. They are not metrics: on a shared 2-vCPU host they
// moved by up to a fifth from run to run (the median on wolfsync, whose
// jobs wait on the corpus's fsyncs) where CPU time, which excludes the
// host's steal, moved by under a tenth.
//
// Per-layer metrics (-trace 1) are mean milliseconds per operation for
// consecutive parts of the verdict latency (see Layer), measured from
// the benchmark's side: an analysis hook collects the pipeline's own
// spans, job views give admission and start times, and the client
// times the recording. other_ms is the part no layer accounts for; on
// table1 it is mostly the uninstrumented runs each pipeline times for
// Table 1's slowdown column. record_slowdown is the recording's time over an
// uninstrumented run of the same program: sim without listeners, or
// the bank program on sync.Mutex instead of wolfsync.Mutex.
//
// The last line of standard output is a JSON object with the run's
// metrics; the lines before it are a readable report, which on wolfsync
// also gives the share of operations whose trace was new to the corpus.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash wolfbench/run.sh --workload upload --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Layer indexes one part of an operation's latency. The parts are
// consecutive, so together with the remainder ("other") they add up to
// the verdict latency.
type Layer int

const (
	// LRecord is the program's execution under the recorder.
	LRecord Layer = iota
	// LDeliver runs from the recorded trace to the start of its
	// analysis: encoding, transport, decoding, validation, archiving
	// (with a corpus), admission and queueing on the wolfd paths; the
	// in-process hand-off on table1.
	LDeliver
	// LReduce and LSearch are the lock-graph reduction and cycle search.
	LReduce
	LSearch
	// LPrune is the Pruner (Algorithm 2).
	LPrune
	// LGsBuild is the Generator (Algorithm 3): building and checking Gs.
	LGsBuild
	// LSettle runs from the offline verdict to the final one: folding
	// the verdict into the corpus (with one) and finishing the job on
	// the wolfd paths; replay (Algorithm 4 and DeadlockFuzzer's) on
	// table1.
	LSettle
	nLayers
)

var layerNames = [nLayers]string{"record", "deliver", "reduce", "search", "prune", "gs_build", "settle"}

// Sample is one finished operation.
type Sample struct {
	Latency time.Duration
	// Layers and Detail are filled only when tracing. Detail splits
	// LDeliver on the wolfd paths: recorded→admitted, admitted→started,
	// started→analysis.
	Layers [nLayers]time.Duration
	Detail [3]time.Duration
	// Bare is the uninstrumented run time of the same program (tracing
	// only), the base of the recording slowdown.
	Bare           time.Duration
	Tuples, Cycles int
	// New marks an operation whose trace wolfd's corpus did not hold.
	New bool
	// Wrong marks a verdict that differs from the reference.
	Wrong bool
}

// Env is one brought-up system under test.
type Env interface {
	// Op runs one operation for client c; i counts the client's ops.
	Op(c, i int) (Sample, error)
	// Down stops the system and keeps its state; Up brings it back
	// over that state. Up is the timed set-up.
	Down()
	Up() error
	// Verify checks what can only be checked after the measured window.
	Verify() error
	Close()
}

// Workload describes one benchmark workload.
type Workload struct {
	Name    string
	Clients int
	// WarmOps is the number of warm-up operations.
	WarmOps int
	// Corpus says whether operations archive their traces in wolfd's
	// corpus, so that the share of new traces is reported.
	Corpus bool
	// Prepare builds the inputs; untimed and optional.
	Prepare func(cfg *Config) (any, error)
	// Setup brings the system up over a fresh state; untimed.
	Setup func(cfg *Config, inputs any) (Env, error)
	// Detail names the Sample.Detail parts, nil when unused.
	Detail []string
}

// Config is one run's settings.
type Config struct {
	Seed    int64
	Seconds int
	Trace   bool
	Workdir string
}

// setupRepeats is how many times a run restarts the system; setup_s is
// their median, and the last one is measured. A restart takes from a
// fraction of a millisecond (wolfd without a corpus) to about 20 ms
// (wolfsync's wolfd reopening its corpus), so many are cheap.
const setupRepeats = 51

// runGrace is how long past the measured window a run may take for
// preparation, set-up and verification before it is abandoned.
const runGrace = 120 * time.Second

func main() {
	name := flag.String("workload", "", "workload: upload, stream, fleet, wolfsync or table1")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 records per-layer metrics instead of end-to-end ones")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for corpora")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: wolfbench --workload upload|stream|fleet|wolfsync|table1 --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// A wedged server must fail the run, not hang it.
	time.AfterFunc(time.Duration(*seconds)*time.Second+runGrace, func() {
		fmt.Fprintln(os.Stderr, "wolfbench: run did not finish in time")
		os.Exit(1)
	})
	cfg := &Config{Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, Workdir: *workdir}
	if err := os.MkdirAll(cfg.Workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench:", err)
		os.Exit(1)
	}
	res.print(w, cfg)
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range []Workload{uploadWorkload(), streamWorkload(), fleetWorkload(), wolfsyncWorkload(), table1Workload()} {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Result is one run's raw measurements.
type Result struct {
	Setups    []time.Duration
	Samples   []Sample
	Attempted int
	Failed    int
	Elapsed   time.Duration
	CPU       time.Duration
	VerifyErr error
	FirstErr  error
}

func run(w Workload, cfg *Config) (*Result, error) {
	var inputs any
	var err error
	if w.Prepare != nil {
		if inputs, err = w.Prepare(cfg); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", w.Name, err)
		}
	}
	env, err := w.Setup(cfg, inputs)
	if err != nil {
		return nil, fmt.Errorf("setup %s: %w", w.Name, err)
	}
	defer env.Close()

	// The warm-up clients are numbered after the measured ones, so every
	// operation on env gets its own (client, op) pair.
	var warm Result
	drive(env, w.Clients, w.Clients, 0, w.WarmOps, &warm)
	if warm.FirstErr != nil {
		return nil, fmt.Errorf("warm-up %s: %w", w.Name, warm.FirstErr)
	}
	for _, s := range warm.Samples {
		if s.Wrong {
			return nil, fmt.Errorf("warm-up %s: a verdict differs from the reference", w.Name)
		}
	}

	res := &Result{}
	for i := 0; i < setupRepeats; i++ {
		env.Down()
		start := time.Now()
		if err := env.Up(); err != nil {
			return nil, fmt.Errorf("restart %s: %w", w.Name, err)
		}
		res.Setups = append(res.Setups, time.Since(start))
	}
	drive(env, 0, w.Clients, time.Duration(cfg.Seconds)*time.Second, 0, res)
	res.VerifyErr = env.Verify()
	return res, nil
}

// drive runs that many closed-loop clients, numbered from first,
// against env and collects their operations into res. It stops after
// d, or after ops operations when ops is positive.
func drive(env Env, first, clients int, d time.Duration, ops int, res *Result) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var started atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(d)
	more := func() bool {
		if ops > 0 {
			return started.Add(1) <= int64(ops)
		}
		return time.Now().Before(end)
	}
	for c := first; c < first+clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; more(); i++ {
				s, err := env.Op(c, i)
				mu.Lock()
				res.add(s, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.CPU = cpuTime() - cpu0
}

func (r *Result) add(s Sample, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if r.FirstErr == nil {
			r.FirstErr = err
		}
		return
	}
	r.Samples = append(r.Samples, s)
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *Result) print(w Workload, cfg *Config) {
	lat := make([]time.Duration, len(r.Samples))
	wrong, fresh := 0, 0
	var layers [nLayers]time.Duration
	var detail [3]time.Duration
	var bare, recorded, total time.Duration
	tuples, cycles := 0, 0
	for i, s := range r.Samples {
		lat[i] = s.Latency
		total += s.Latency
		if s.Wrong {
			wrong++
		}
		if s.New {
			fresh++
		}
		for l := range layers {
			layers[l] += s.Layers[l]
		}
		for d := range detail {
			detail[d] += s.Detail[d]
		}
		bare += s.Bare
		recorded += s.Layers[LRecord]
		tuples += s.Tuples
		cycles += s.Cycles
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	setups := append([]time.Duration(nil), r.Setups...)
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	n := max(1, len(r.Samples))
	perOp := func(d time.Duration) float64 { return ms(d) / float64(n) }

	fmt.Printf("workload %s  seed %d  clients %d  trace %v\n", w.Name, cfg.Seed, w.Clients, cfg.Trace)
	fmt.Printf("ops %d  failed %d  wrong verdicts %d  elapsed %.3fs  cpu %.3fs (%.4f ms/op)\n",
		r.Attempted, r.Failed, wrong, r.Elapsed.Seconds(), r.CPU.Seconds(), ms(r.CPU)/float64(n))
	fmt.Printf("verdict latency ms  p50 %.4f  p90 %.4f  p99 %.4f  (%d samples)  throughput %.2f/s\n",
		ms(quantile(lat, 0.5)), ms(quantile(lat, 0.9)), ms(quantile(lat, 0.99)), len(lat), float64(len(lat))/r.Elapsed.Seconds())
	if w.Corpus {
		fmt.Printf("traces new to the corpus: %d of %d ops (%.1f%%)\n", fresh, len(r.Samples), 100*float64(fresh)/float64(n))
	}
	fmt.Printf("setup s  %v\n", setups)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Printf("peak resident memory %d kB\n", ru.Maxrss)
	}
	if r.FirstErr != nil {
		fmt.Printf("first error: %v\n", r.FirstErr)
	}
	if r.VerifyErr != nil {
		fmt.Printf("verify: %v\n", r.VerifyErr)
	}

	metrics := map[string]metric{}
	if cfg.Trace {
		other := total
		fmt.Printf("%-22s %12s %8s\n", "layer", "ms/op", "share")
		for l, name := range layerNames {
			other -= layers[l]
			metrics[name+"_ms"] = metric{perOp(layers[l]), "ms"}
			fmt.Printf("%-22s %12.5f %7.1f%%\n", name, perOp(layers[l]), 100*float64(layers[l])/float64(max(total, 1)))
			if Layer(l) == LDeliver {
				for d, dn := range w.Detail {
					fmt.Printf("  %-20s %12.5f %7.1f%%\n", dn, perOp(detail[d]), 100*float64(detail[d])/float64(max(total, 1)))
				}
			}
		}
		metrics["other_ms"] = metric{perOp(other), "ms"}
		fmt.Printf("%-22s %12.5f %7.1f%%\n", "other", perOp(other), 100*float64(other)/float64(max(total, 1)))
		slowdown := 0.0
		if bare > 0 {
			slowdown = float64(recorded) / float64(bare)
		}
		metrics["record_slowdown"] = metric{slowdown, "x"}
		fmt.Printf("record slowdown %.4fx  tuples/op %.2f  cycles/op %.2f\n",
			slowdown, float64(tuples)/float64(n), float64(cycles)/float64(n))
	} else {
		metrics["cpu_ms_per_verdict"] = metric{ms(r.CPU) / float64(n), "ms"}
		metrics["setup_s"] = metric{quantile(setups, 0.5).Seconds(), "s"}
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   wrong == 0 && r.VerifyErr == nil && len(r.Samples) > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   metrics,
	})
	fmt.Println(string(out))
}
