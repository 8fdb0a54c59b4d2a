package wolfsync

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wolf/internal/httpx"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// Environment variables consulted by Start when no sink option is
// given — the protocol `wolfctl run` speaks to instrumented programs.
const (
	// EnvOut names the .wtrc file Stop writes (file sink).
	EnvOut = "WOLFSYNC_OUT"
	// EnvURL is a wolfd base URL to live-stream snapshots into.
	EnvURL = "WOLFSYNC_URL"
	// EnvTraceparent is a W3C traceparent forwarded on stream opens,
	// tying the resulting jobs to the caller's causal trace.
	EnvTraceparent = "WOLFSYNC_TRACEPARENT"
)

// ErrActive is returned by Start when a session is already recording:
// the recorder is process-global (it hooks every wolfsync.Mutex), so
// sessions are exclusive.
var ErrActive = errors.New("wolfsync: a recording session is already active")

// active is the process-global recording session, nil when idle.
var active atomic.Pointer[Recorder]

// epochSeq numbers sessions so per-goroutine counters can detect a new
// session lazily, without a stop-the-world reset.
var epochSeq atomic.Uint64

// lockSeq names mutexes that were never given a name.
var lockSeq atomic.Int64

// wallLast makes wall-clock timestamps globally non-decreasing even if
// the wall clock steps backwards (NTP): each reading is clamped to the
// maximum issued so far. Per-thread monotonicity — the invariant
// trace.Validate enforces — follows a fortiori.
var wallLast atomic.Int64

func wallTau() int {
	now := time.Now().UnixNano()
	for {
		old := wallLast.Load()
		if now <= old {
			return int(old)
		}
		if wallLast.CompareAndSwap(old, now) {
			return int(now)
		}
	}
}

// options collects Start's configuration.
type options struct {
	file        string
	streamURL   string
	traceparent string
	source      string
	quiesce     time.Duration
	chunk       int
	maxBuffered int64
	wallTau     bool
	httpClient  *httpx.Client
}

// withHTTPClient overrides the streaming sink's HTTP client (tests).
func withHTTPClient(c *httpx.Client) Option { return func(o *options) { o.httpClient = c } }

// Option configures Start.
type Option func(*options)

// WithFile makes Stop write the final trace to path (atomically: a
// temp file in the same directory, then rename).
func WithFile(path string) Option { return func(o *options) { o.file = path } }

// WithStream ships trace snapshots to wolfd at base (e.g.
// "http://localhost:8077") over POST /v1/streams: once on Stop, and
// whenever recording has been quiet for the quiesce window — so a
// wedged program's trace reaches wolfd without anyone calling Stop.
func WithStream(base string) Option { return func(o *options) { o.streamURL = base } }

// WithTraceparent forwards a W3C traceparent header on stream opens.
func WithTraceparent(tp string) Option { return func(o *options) { o.traceparent = tp } }

// WithQuiesce sets how long recording must stay quiet before the
// streaming sink ships a snapshot mid-run (default 2s; 0 disables
// mid-run shipping, leaving only the final ship on Stop).
func WithQuiesce(d time.Duration) Option { return func(o *options) { o.quiesce = d } }

// WithMaxBuffered bounds the in-memory event buffer. Beyond the bound
// new acquisitions are counted as dropped instead of recorded — the
// recorder never blocks or grows without limit (default 1<<20 events).
func WithMaxBuffered(n int) Option { return func(o *options) { o.maxBuffered = int64(n) } }

// WithWallClockTau stamps every tuple with a wall-clock timestamp
// (nanoseconds, clamped to be non-decreasing) instead of the default
// Bottom. Timestamps from concurrent goroutines are mutually unordered
// in trace order — trace.Validate deliberately only checks per-thread
// monotonicity, which this mode guarantees.
func WithWallClockTau() Option { return func(o *options) { o.wallTau = true } }

// Stats is a point-in-time snapshot of a session's counters.
type Stats struct {
	// Recorded counts tuples accepted into the buffer.
	Recorded int64
	// Dropped counts acquisitions discarded because the buffer was
	// full — the never-block guarantee made visible.
	Dropped int64
	// Anomalies counts releases with no matching held entry
	// (cross-goroutine unlocks, unlocks of never-recorded locks).
	Anomalies int64
	// Ships and ShipErrors count streaming-sink snapshot deliveries
	// and failures (a failed ship keeps the tuples for the next try).
	Ships      int64
	ShipErrors int64
	// LastJob is the job ID wolfd minted for the most recent shipped
	// snapshot, "" before the first successful ship.
	LastJob string
}

// Recorder is one recording session. Obtain it from Start; it is ready
// for concurrent use by any number of goroutines.
type Recorder struct {
	epoch uint64
	opts  options

	buf  buffer
	tids atomic.Int64

	recorded  atomic.Int64
	dropped   atomic.Int64
	anomalies atomic.Int64

	mu      sync.Mutex
	tuples  []*trace.Tuple
	shipped int // len(tuples) covered by the last successful ship

	// names holds the thread names bound in this session; for a name
	// claimed more than once it holds the last ~k suffix handed out.
	namesMu sync.Mutex
	names   map[string]int

	sink *streamSink

	stop     chan struct{}
	loopDone chan struct{}
}

// Start begins a recording session and installs it as the process
// recorder. With no sink options, sinks come from the WOLFSYNC_OUT /
// WOLFSYNC_URL / WOLFSYNC_TRACEPARENT environment (both may be set;
// neither is also fine — call WriteTo yourself). The calling goroutine
// becomes thread "main" unless it already carries a name, and binds
// that name before any other goroutine can. Only one session may be
// active at a time (ErrActive otherwise).
func Start(opts ...Option) (*Recorder, error) {
	o := options{
		quiesce:     2 * time.Second,
		chunk:       64 << 10,
		maxBuffered: 1 << 20,
		source:      "wolfsync",
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.file == "" && o.streamURL == "" {
		o.file = os.Getenv(EnvOut)
		o.streamURL = os.Getenv(EnvURL)
		if o.traceparent == "" {
			o.traceparent = os.Getenv(EnvTraceparent)
		}
	}
	if o.maxBuffered <= 0 {
		return nil, fmt.Errorf("wolfsync: max buffered events must be positive")
	}
	// The session root: name the calling goroutine "main" so creation
	// chains match sim's root thread. A goroutine that already carries
	// a real name (a nested Start from a labelled worker) keeps it.
	g := curG()
	root := g.name
	if strings.HasPrefix(root, "g.") {
		root = "main"
	}
	r := &Recorder{
		epoch: epochSeq.Add(1),
		opts:  o,
		stop:  make(chan struct{}),
		names: map[string]int{root: 1},
	}
	if o.streamURL != "" {
		r.sink = newStreamSink(o)
	}
	if !active.CompareAndSwap(nil, r) {
		return nil, ErrActive
	}
	g.name = root
	g.join(r, root)
	if r.sink != nil && o.quiesce > 0 {
		r.loopDone = make(chan struct{})
		go r.loop()
	}
	return r, nil
}

// loop is the streaming sink's background shipper: when recording has
// been quiet for the quiesce window and unshipped tuples exist, ship a
// snapshot. It runs until Stop.
func (r *Recorder) loop() {
	defer close(r.loopDone)
	poll := max(r.opts.quiesce/4, 50*time.Millisecond)
	t := time.NewTicker(poll)
	defer t.Stop()
	lastLen := -1
	lastChange := time.Now()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.mu.Lock()
			r.drainLocked()
			n := len(r.tuples)
			shipped := r.shipped
			r.mu.Unlock()
			if n != lastLen {
				lastLen, lastChange = n, now
				continue
			}
			if n > shipped && now.Sub(lastChange) >= r.opts.quiesce {
				r.ship()
			}
		}
	}
}

// Stop ends the session: uninstalls the recorder, drains the buffer a
// final time, and flushes the configured sinks (file write, final
// stream ship). It returns the first sink error; the recorder itself
// cannot fail. Acquisitions racing with Stop may go unrecorded, which
// is inherent — stopping a recorder mid-flight truncates the trace at
// some consistent per-goroutine prefix.
func (r *Recorder) Stop() error {
	active.CompareAndSwap(r, nil)
	select {
	case <-r.stop:
		return nil // already stopped
	default:
	}
	close(r.stop)
	if r.loopDone != nil {
		<-r.loopDone
	}
	var errs []error
	if r.sink != nil {
		if err := r.ship(); err != nil {
			errs = append(errs, err)
		}
	}
	if r.opts.file != "" {
		if err := r.WriteFile(r.opts.file); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ship sends one snapshot to wolfd, if there is anything new to send.
// Failures, a snapshot that does not assemble included, are counted and
// the tuples kept for the next attempt; the instrumented program is
// never blocked (ship runs on the background loop or inside Stop, never
// on an instrumented goroutine).
func (r *Recorder) ship() error {
	tr, n, err := r.snapshotN()
	if err != nil {
		r.sink.shipErrs.Add(1)
		return err
	}
	r.mu.Lock()
	already := r.shipped
	r.mu.Unlock()
	if n == 0 || n <= already {
		return nil
	}
	if _, err := r.sink.ship(tr); err != nil {
		return fmt.Errorf("wolfsync: ship snapshot: %w", err)
	}
	r.mu.Lock()
	if n > r.shipped {
		r.shipped = n
	}
	r.mu.Unlock()
	return nil
}

// drainLocked folds buffered events into the ordered tuple log.
// Caller holds r.mu.
func (r *Recorder) drainLocked() {
	r.tuples = append(r.tuples, r.buf.drain()...)
}

// snapshotN assembles the trace recorded so far and reports how many
// tuples it covers. Safe at any time, on any goroutine, concurrently
// with recording. A snapshot that does not assemble is an error, never
// an empty trace: the recorder keeps positions dense per bound thread
// name, so it means the recorder broke its own invariant.
func (r *Recorder) snapshotN() (*trace.Trace, int, error) {
	r.mu.Lock()
	r.drainLocked()
	tups := make([]*trace.Tuple, len(r.tuples))
	copy(tups, r.tuples)
	r.mu.Unlock()
	tr, err := trace.Assemble(tups, nil, nil, len(tups), 0)
	if err != nil {
		return nil, 0, fmt.Errorf("wolfsync: assemble snapshot: %w", err)
	}
	return tr, len(tups), nil
}

// WriteTo serializes the trace recorded so far as binary WTRC,
// implementing io.WriterTo. Safe at any time, concurrently with
// recording.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	tr, _, err := r.snapshotN()
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: w}
	err = tr.WriteBinary(cw)
	return cw.n, err
}

// countingWriter tallies bytes for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteFile writes the trace recorded so far to path atomically: a
// temp file in the destination directory, then a rename — a crash
// mid-write never leaves a torn .wtrc behind.
func (r *Recorder) WriteFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".wolfsync-*.wtrc")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := r.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Stats returns the session's counters.
func (r *Recorder) Stats() Stats {
	s := Stats{
		Recorded:  r.recorded.Load(),
		Dropped:   r.dropped.Load(),
		Anomalies: r.anomalies.Load(),
	}
	if r.sink != nil {
		s.Ships = r.sink.ships.Load()
		s.ShipErrors = r.sink.shipErrs.Load()
		if j := r.sink.lastJob.Load(); j != nil {
			s.LastJob = *j
		}
	}
	return s
}

// bind grants a goroutine joining the session, or relabelling itself
// in it, the thread name want: want itself if no goroutine of the
// session has it, else the first free want~k with k counting from 2
// (see Label).
func (r *Recorder) bind(want string) string {
	r.namesMu.Lock()
	defer r.namesMu.Unlock()
	name := want
	for k := r.names[want]; r.names[name] > 0; {
		k++
		name = fmt.Sprintf("%s~%d", want, k)
		r.names[want] = k
	}
	r.names[name] = 1
	return name
}

// noteAcquire records an acquisition request by the calling goroutine
// in session r: called by Mutex.Lock before blocking on the real mutex
// (and by TryLock after a successful try — which never blocks, so the
// distinction is unobservable). The goroutine's tuple builder fills the
// buffer node's tuple in place, so a recorded acquisition is one
// allocation. Re-acquisition of a lock already held by this goroutine
// emits no tuple, matching sim's reentrancy rule. A goroutine's
// visible operations are its acquisitions, so its execution index
// counts the keys it has consumed.
func noteAcquire(r *Recorder, lock, site string) {
	g := curG()
	g.ensure(r)
	tau := vclock.Bottom
	if r.opts.wallTau {
		tau = wallTau()
	}
	ev := new(event)
	idx := sim.Index{Thread: g.tt.Name(), Seq: g.tt.Keys() + 1}
	if !g.tt.Acquire(&ev.tup, lock, site, g.tid, idx, tau) {
		return
	}
	if r.buf.push(g.shard(), ev, r.opts.maxBuffered) {
		r.recorded.Add(1)
	} else {
		g.tt.Drop()
		r.dropped.Add(1)
	}
}

// noteRelease pops the most recent matching held entry of session r —
// sim's unlock rule. A release with no matching entry (cross-goroutine
// unlock, or a lock acquired before the session) is counted as an
// anomaly and otherwise ignored: sync.Mutex permits it, so the
// recorder must too. Entries from an earlier epoch never match.
func noteRelease(r *Recorder, lock string) {
	g := curG()
	if g.epoch != r.epoch || !g.tt.Release(lock) {
		r.anomalies.Add(1)
	}
}
