package main

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"wolf/internal/report"
	"wolf/internal/trace"
	"wolf/wolfsync"
)

// locker is what the bank program locks: *sync.Mutex for the
// uninstrumented twin, *wolfsync.Mutex for the recorded run.
type locker interface {
	Lock()
	Unlock()
}

const (
	bankAccounts = 4
	bankTellers  = 3
	bankRounds   = 12
	bankOpening  = 1000
	// bankAcquisitions is how many locks one run of the bank program
	// takes: two per teller round and two per pair the auditor locks.
	bankAcquisitions = 2*bankTellers*bankRounds + 2*(bankAccounts-1)
)

// bankWarmOps is the wolfsync workload's warm-up, about two seconds
// of operations.
const bankWarmOps = 200

// bank is a real concurrent Go program: tellers move money between
// accounts, locking each pair in ascending order; once every teller is
// done, an auditor locks adjacent pairs in descending order. The trace
// holds both orders — a potential deadlock — while the run itself can
// never wedge, because the two orders never overlap in time. offset
// varies which pairs the tellers pick. It returns the total balance,
// which a correct run conserves.
func bank(locks []locker, spawn func(name string, fn func()), offset int) int {
	n := len(locks)
	balance := make([]int, n)
	for i := range balance {
		balance[i] = bankOpening
	}
	var tellers sync.WaitGroup
	tellers.Add(bankTellers)
	for t := 0; t < bankTellers; t++ {
		spawn("teller", func() {
			defer tellers.Done()
			for r := 0; r < bankRounds; r++ {
				from := (t + r + offset) % n
				to := (from + 1 + r%(n-1)) % n
				lo, hi := min(from, to), max(from, to)
				locks[lo].Lock()
				locks[hi].Lock()
				balance[from]--
				balance[to]++
				locks[hi].Unlock()
				locks[lo].Unlock()
			}
		})
	}
	tellers.Wait()

	total := 0
	var audit sync.WaitGroup
	audit.Add(1)
	spawn("auditor", func() {
		defer audit.Done()
		for i := n - 1; i > 0; i-- {
			locks[i].Lock()
			locks[i-1].Lock()
			total += balance[i]
			if i == 1 {
				total += balance[0]
			}
			locks[i-1].Unlock()
			locks[i].Unlock()
		}
	})
	audit.Wait()
	return total
}

func goSpawn(_ string, fn func()) { go fn() }

// hasBankCycle reports whether rep holds a cycle the bank program is
// built to contain: a teller and the auditor taking two accounts in
// opposite orders.
func hasBankCycle(rep *report.JSONReport) bool {
	for _, c := range rep.Cycles {
		has := func(role string) bool {
			return slices.ContainsFunc(c.Threads, func(t string) bool { return strings.Contains(t, "/"+role+".") })
		}
		if len(c.Threads) == 2 && has("teller") && has("auditor") {
			return true
		}
	}
	return false
}

// wolfsyncEnv runs the bank program under a wolfsync session that
// ships its trace to wolfd when it stops.
type wolfsyncEnv struct {
	*wolfd
	cfg    *Config
	offset int
	// archived holds the hashes of the traces shipped so far.
	archived map[string]bool
	// shipped are the corpus address and wolfd verdict of every
	// operation, checked against the batch reference after the run.
	shipped []shippedTrace
}

type shippedTrace struct {
	hash string
	got  verdict
}

func (e *wolfsyncEnv) Op(c, i int) (Sample, error) {
	traceID := traceIDFor(e.cfg.Seed, c, i)
	var s Sample
	if e.cfg.Trace {
		plain := make([]locker, bankAccounts)
		for k := range plain {
			plain[k] = &sync.Mutex{}
		}
		t := time.Now()
		bank(plain, goSpawn, e.offset)
		s.Bare = time.Since(t)
	}

	start := time.Now()
	rec, err := wolfsync.Start(wolfsync.WithStream(e.base), wolfsync.WithQuiesce(0),
		wolfsync.WithTraceparent(traceparent(traceID)))
	if err != nil {
		return s, err
	}
	locks := make([]locker, bankAccounts)
	for k := range locks {
		locks[k] = wolfsync.NewMutex(fmt.Sprintf("account.%d", k))
	}
	total := bank(locks, wolfsync.Go, e.offset)
	recorded := time.Now()
	if err := rec.Stop(); err != nil {
		return s, err
	}
	st := rec.Stats()
	if st.Dropped > 0 || st.LastJob == "" {
		return s, fmt.Errorf("wolfsync: %d dropped, job %q", st.Dropped, st.LastJob)
	}
	v, rep, err := e.waitJob(st.LastJob)
	if err != nil {
		return s, err
	}
	if err := e.fillLayers(&s, traceID, start, recorded, v); err != nil {
		return s, err
	}
	s.Tuples, s.Cycles = int(st.Recorded), len(rep.Cycles)
	// Verify checks wolfd's verdict against the trace wolfd archived,
	// which agrees with itself even when the recorder lost or misplaced
	// acquisitions; the program's fixed lock count and the cycle it is
	// built to contain catch those.
	s.Wrong = total != bankAccounts*bankOpening || st.Recorded != bankAcquisitions || !hasBankCycle(rep)
	s.New = !e.archived[v.TraceHash]
	e.archived[v.TraceHash] = true
	e.shipped = append(e.shipped, shippedTrace{hash: v.TraceHash, got: verdictOf(rep)})
	return s, nil
}

func (e *wolfsyncEnv) Down() { e.shutdown() }

func (e *wolfsyncEnv) Up() error {
	d, err := e.reopen()
	if err == nil {
		e.wolfd = d
	}
	return err
}

// Verify re-analyzes every archived trace with the batch pipeline and
// compares the verdict wolfd gave the live-shipped snapshot.
func (e *wolfsyncEnv) Verify() error {
	want := map[string]verdict{}
	for _, sh := range e.shipped {
		ref, ok := want[sh.hash]
		if !ok {
			resp, err := e.client.Get(e.base + "/v1/traces/" + sh.hash)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				return fmt.Errorf("trace %s: %s", sh.hash, resp.Status)
			}
			tr, err := trace.ReadBinary(resp.Body)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("trace %s: %w", sh.hash, err)
			}
			ref = referenceVerdict(tr)
			want[sh.hash] = ref
		}
		if !slices.Equal(sh.got, ref) {
			return fmt.Errorf("trace %s: wolfd verdict differs from the batch reference", sh.hash)
		}
	}
	return nil
}

func wolfsyncWorkload() Workload {
	return Workload{
		Name:    "wolfsync",
		Clients: 1, // a wolfsync session is process-wide
		WarmOps: bankWarmOps,
		Corpus:  true,
		Detail:  wolfdDetail,
		Setup: func(cfg *Config, _ any) (Env, error) {
			d, err := startWolfd(cfg, 0, true)
			if err != nil {
				return nil, err
			}
			return &wolfsyncEnv{wolfd: d, cfg: cfg, offset: int(uint64(cfg.Seed) % bankAccounts), archived: map[string]bool{}}, nil
		},
	}
}
