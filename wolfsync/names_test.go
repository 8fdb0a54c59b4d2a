package wolfsync

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"wolf/internal/trace"
)

// A session binds each thread name once; later claimants get name~k.

// threadsOf returns the trace's thread names with each tuple's position
// and site, as sorted "thread|pos|site" strings.
func threadsOf(tr *trace.Trace) []string {
	var out []string
	for _, tp := range tr.Tuples {
		out = append(out, fmt.Sprintf("%s|%d|%s", tp.Thread, tp.Pos, tp.Site))
	}
	sort.Strings(out)
	return out
}

// TestNameLabelTwiceInSession: two goroutines that Label("handler") one
// after the other in one session record as handler and handler~2, and
// every recorded tuple ships.
func TestNameLabelTwiceInSession(t *testing.T) {
	m := NewMutex("h")
	var r *Recorder
	tr := record(t, func() {
		r = active.Load()
		for _, site := range []string{"h.go:1", "h.go:2"} {
			done := make(chan struct{})
			go func() {
				defer close(done)
				Label("handler")
				m.LockAt(site)
				m.Unlock()
			}()
			<-done
		}
	})
	want := []string{"handler|0|h.go:1", "handler~2|0|h.go:2"}
	if got := threadsOf(tr); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
	if st := r.Stats(); st.Recorded != int64(len(tr.Tuples)) {
		t.Fatalf("recorded %d tuples, shipped %d", st.Recorded, len(tr.Tuples))
	}
}

// TestNameStaleMainInNewSession: a goroutine that became "main" in an
// earlier session and records in a new session, whose Start caller is
// "main" too, records as main~2; the new session's root keeps main.
func TestNameStaleMainInNewSession(t *testing.T) {
	m := NewMutex("stale")
	r1, err := Start()
	if err != nil {
		t.Fatal(err)
	}
	m.LockAt("s1.go:1")
	m.Unlock()
	if err := r1.Stop(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		buf bytes.Buffer
		st  Stats
		err error
	}
	started, proceed, finished := make(chan struct{}), make(chan struct{}), make(chan *result)
	go func() {
		res := &result{}
		defer func() { finished <- res }()
		r2, err := Start()
		if err != nil {
			res.err = err
			close(started)
			return
		}
		m.LockAt("s2.go:1")
		m.Unlock()
		close(started)
		<-proceed
		_, res.err = r2.WriteTo(&res.buf)
		res.st = r2.Stats()
		res.err = errors.Join(res.err, r2.Stop())
	}()
	<-started
	m.LockAt("s2.go:2") // this goroutine is session 1's main
	m.Unlock()
	close(proceed)
	res := <-finished
	if res.err != nil {
		t.Fatal(res.err)
	}
	tr, err := trace.ReadBinary(&res.buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(tr); err != nil {
		t.Fatal(err)
	}
	want := []string{"main|0|s2.go:1", "main~2|0|s2.go:2"}
	if got := threadsOf(tr); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
	if res.st.Recorded != int64(len(tr.Tuples)) {
		t.Fatalf("recorded %d tuples, shipped %d", res.st.Recorded, len(tr.Tuples))
	}
}

// TestNameBindSkipsBoundSuffix: a claimant whose ~k name was already
// bound explicitly moves on to the next free suffix.
func TestNameBindSkipsBoundSuffix(t *testing.T) {
	r := &Recorder{names: map[string]int{}}
	var got []string
	for _, want := range []string{"w", "w~2", "w", "w", "w~2"} {
		got = append(got, r.bind(want))
	}
	want := []string{"w", "w~2", "w~3", "w~4", "w~2~2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("bound %v, want %v", got, want)
	}
}

// TestSnapshotAssemblyErrorSurfaces: a snapshot that does not assemble
// is an error from WriteTo, WriteFile and ship (counted in ShipErrors),
// never an empty trace.
func TestSnapshotAssemblyErrorSurfaces(t *testing.T) {
	dup := func() *trace.Tuple {
		return &trace.Tuple{Thread: "t", Lock: "L", Site: "x.go:1"}
	}
	r := &Recorder{
		tuples: []*trace.Tuple{dup(), dup()}, // both at Pos 0 of thread t
		sink:   newStreamSink(options{streamURL: "http://127.0.0.1:1"}),
	}
	if _, err := r.WriteTo(&bytes.Buffer{}); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("WriteTo: %v, want ErrCorrupt", err)
	}
	path := filepath.Join(t.TempDir(), "out.wtrc")
	if err := r.WriteFile(path); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("WriteFile: %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("WriteFile left %s behind: %v", path, err)
	}
	if err := r.ship(); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("ship: %v, want ErrCorrupt", err)
	}
	if st := r.Stats(); st.ShipErrors != 1 || st.Ships != 0 {
		t.Fatalf("stats = %+v, want one ship error and no ship", st)
	}
}

// TestNameConcurrentLabels: goroutines labelling themselves with one
// name at once each bind a distinct name — handler through
// handler~N — and every tuple ships.
func TestNameConcurrentLabels(t *testing.T) {
	const n = 16
	m := NewMutex("c")
	tr := record(t, func() {
		var wg sync.WaitGroup
		wg.Add(n)
		for range n {
			go func() {
				defer wg.Done()
				Label("handler")
				m.LockAt("c.go:1")
				m.Unlock()
			}()
		}
		wg.Wait()
	})
	got := make(map[string]bool)
	for _, tp := range tr.Tuples {
		got[tp.Thread] = true
	}
	if len(tr.Tuples) != n || len(got) != n || !got["handler"] || !got[fmt.Sprintf("handler~%d", n)] {
		t.Fatalf("threads = %v over %d tuples, want handler through handler~%d", got, len(tr.Tuples), n)
	}
}
