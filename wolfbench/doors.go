package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wolf/internal/core"
	"wolf/internal/store"
	"wolf/internal/workloads"
	"wolf/sim"
)

// doorMix is the program mix the sim-recording workloads draw from.
// Six are the paper's own inputs: the Table 1 rows cache4j,
// JavaLogging, ArrayList and HashMap and the worked examples of
// Figures 4 and 9. The other four are the registry's further
// defect-bearing programs: the GlobalLock registry-lock reversal,
// TaskQueue's wait/notify defect, the AppServer composite and the
// textbook Bank transfer. Jigsaw, the last Table 1 program, is left
// out: wolfd keeps every job's trace and report in memory, and a run's
// worth of Jigsaw jobs would hold gigabytes.
var doorMix = []string{
	"cache4j", "JavaLogging", "ArrayList", "HashMap", "Figure4",
	"Figure9", "GlobalLock", "TaskQueue", "AppServer", "Bank",
}

// doorWarmOps is the sim workloads' warm-up, one to three seconds.
const doorWarmOps = 1000

// doorClients is the closed-loop client count of the sim workloads.
// One client keeps wolfd's queueing out of the latency. On a 2-vCPU
// host it finishes about 1300 uploads a second, and wolfd keeps every
// finished job in memory, about 40 KB each: that, not time, bounds the
// measured window.
const doorClients = 1

// streamChunk is the stream workload's chunk size: small enough that
// the larger traces arrive in several chunks.
const streamChunk = 1 << 10

// prepareDoorPrograms resolves the mix in the registry.
func prepareDoorPrograms(*Config) (any, error) {
	var progs []workloads.Workload
	for _, name := range doorMix {
		wl, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", name)
		}
		progs = append(progs, wl)
	}
	return progs, nil
}

// simInput is one recordable execution: a program of the mix, by
// index, and a schedule seed.
type simInput struct {
	program int
	seed    int64
}

// doorEnv drives one wolfd front door with sim recordings.
type doorEnv struct {
	*wolfd
	cfg   *Config
	progs []workloads.Workload
	// send delivers an encoded trace and returns the admitted job ID.
	send func(d *doorEnv, wtrc []byte, tp string) (string, error)
	// next numbers the operations across the clients.
	next atomic.Int64

	mu  sync.Mutex
	got []doorVerdict // every finished operation, checked by Verify
}

// doorVerdict is what wolfd made of one execution: the content address
// of the trace sent, and wolfd's verdict.
type doorVerdict struct {
	in   simInput
	hash string
	got  verdict
}

// input is operation k's execution. The programs take turns, and each
// turn of a program runs its next schedule seed from a base derived
// from the run seed, so no two operations send the same trace.
func (e *doorEnv) input(k int64) simInput {
	n := int64(len(e.progs))
	j, turn := k%n, k/n
	base := int64(1 + (uint64(e.cfg.Seed)*7919+uint64(j)*104729)%100000)
	return simInput{program: int(j), seed: base + turn}
}

func (e *doorEnv) Op(c, i int) (Sample, error) {
	in := e.input(e.next.Add(1) - 1)
	factory := e.progs[in.program].New
	traceID := traceIDFor(e.cfg.Seed, c, i)
	var s Sample
	if e.cfg.Trace {
		prog, opts := factory()
		t := time.Now()
		sim.Run(prog, sim.NewRandomStrategy(in.seed), opts)
		s.Bare = time.Since(t)
	}

	start := time.Now()
	tr := core.Record(factory, in.seed, 0)
	recorded := time.Now()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		return s, err
	}
	id, err := e.send(e, buf.Bytes(), traceparent(traceID))
	if err != nil {
		return s, err
	}
	v, rep, err := e.waitJob(id)
	if err != nil {
		return s, err
	}
	if err := e.fillLayers(&s, traceID, start, recorded, v); err != nil {
		return s, err
	}
	sum := sha256.Sum256(buf.Bytes())
	hash := hex.EncodeToString(sum[:])
	s.Tuples, s.Cycles = len(tr.Tuples), len(rep.Cycles)
	e.mu.Lock()
	e.got = append(e.got, doorVerdict{in: in, hash: hash, got: verdictOf(rep)})
	e.mu.Unlock()
	return s, nil
}

func (e *doorEnv) Down() { e.shutdown() }

func (e *doorEnv) Up() error {
	d, err := e.reopen()
	if err == nil {
		e.wolfd = d
	}
	return err
}

// Verify checks every operation against the batch pipeline, run in
// process on a new recording of the same execution: the recording must
// have the content address of the trace sent, and the verdicts must
// agree.
func (e *doorEnv) Verify() error {
	type reference struct {
		hash string
		want verdict
	}
	refs := map[simInput]reference{}
	for _, g := range e.got {
		ref, ok := refs[g.in]
		if !ok {
			tr := core.Record(e.progs[g.in.program].New, g.in.seed, 0)
			hash, _, err := store.HashTrace(tr)
			if err != nil {
				return err
			}
			ref = reference{hash: hash, want: referenceVerdict(tr)}
			refs[g.in] = ref
		}
		name := e.progs[g.in.program].Name
		if g.hash != ref.hash {
			return fmt.Errorf("%s seed %d: the recording is not deterministic", name, g.in.seed)
		}
		if !slices.Equal(g.got, ref.want) {
			return fmt.Errorf("%s seed %d: wolfd's verdict differs from the batch reference", name, g.in.seed)
		}
	}
	return nil
}

// sendUpload is the batch front door: one POST /v1/traces.
func sendUpload(d *doorEnv, wtrc []byte, tp string) (string, error) {
	var v jobView
	err := d.do(http.MethodPost, "/v1/traces", wtrc, map[string]string{"traceparent": tp}, http.StatusAccepted, &v)
	return v.ID, err
}

// sendStream is the streaming front door: open, append in chunks,
// close into a job.
func sendStream(d *doorEnv, wtrc []byte, tp string) (string, error) {
	var opened struct {
		ID string `json:"id"`
	}
	hdr := map[string]string{"traceparent": tp, "Content-Type": "application/json"}
	if err := d.do(http.MethodPost, "/v1/streams", []byte(`{"source":"sim"}`), hdr, http.StatusCreated, &opened); err != nil {
		return "", err
	}
	for off := 0; off < len(wtrc); off += streamChunk {
		chunk := wtrc[off:min(off+streamChunk, len(wtrc))]
		if err := d.do(http.MethodPost, "/v1/streams/"+opened.ID+"/chunks", chunk, nil, http.StatusOK, nil); err != nil {
			return "", err
		}
	}
	var v jobView
	err := d.do(http.MethodPost, "/v1/streams/"+opened.ID+"/close", nil, nil, http.StatusAccepted, &v)
	return v.ID, err
}

// doorWorkload builds a sim-recording workload on one front door of a
// wolfd without a corpus, as wolfd runs without -data-dir. With one,
// every job waits on several fsyncs: the figures then follow the host's
// disk, which on a shared host moves them by a fifth from run to run.
// The wolfsync workload keeps the corpus in the measurement.
func doorWorkload(name string, nodes int, send func(*doorEnv, []byte, string) (string, error)) Workload {
	return Workload{
		Name:    name,
		Clients: doorClients,
		WarmOps: doorWarmOps,
		Prepare: prepareDoorPrograms,
		Detail:  wolfdDetail,
		Setup: func(cfg *Config, inputs any) (Env, error) {
			d, err := startWolfd(cfg, nodes, false)
			if err != nil {
				return nil, err
			}
			return &doorEnv{wolfd: d, cfg: cfg, progs: inputs.([]workloads.Workload), send: send}, nil
		},
	}
}

func uploadWorkload() Workload { return doorWorkload("upload", 0, sendUpload) }
func streamWorkload() Workload { return doorWorkload("stream", 0, sendStream) }
func fleetWorkload() Workload  { return doorWorkload("fleet", 2, sendUpload) }
