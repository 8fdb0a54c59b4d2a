package wolfsync

import (
	"strings"
	"testing"

	"wolf/internal/trace"
)

// The session rule: only acquisitions made while a session is active
// are on its lock stacks.

// TestSessionPreStartLockOutsideHeldSet: a lock taken before Start and
// held across a recorded acquisition is absent from that tuple's held
// set, and its release inside the session is one anomaly.
func TestSessionPreStartLockOutsideHeldSet(t *testing.T) {
	pre, in := NewMutex("pre"), NewMutex("in")
	pre.LockAt("pre.go:1")
	r, err := Start()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	in.LockAt("in.go:1")
	in.Unlock()
	pre.Unlock()
	tr := r.snapshot()
	if len(tr.Tuples) != 1 || tr.Tuples[0].Lock != "in" {
		t.Fatalf("tuples = %v, want one acquisition of in", tr.Tuples)
	}
	if held := tr.Tuples[0].Held; len(held) != 0 {
		t.Fatalf("held set = %v, want empty (pre was taken before Start)", held)
	}
	if st := r.Stats(); st.Anomalies != 1 {
		t.Fatalf("anomalies = %d, want 1 for the release of pre", st.Anomalies)
	}
}

// TestSessionEarlierSessionLocksNotCarried: locks taken in session 1
// are neither in session 2's held sets nor counted as reentrant there,
// whether released after Stop or still held; releasing one inside
// session 2 is an anomaly.
func TestSessionEarlierSessionLocksNotCarried(t *testing.T) {
	a, b, c := NewMutex("a"), NewMutex("b"), NewMutex("c")
	rw := NewRWMutex("rw")

	r1, err := Start()
	if err != nil {
		t.Fatal(err)
	}
	a.LockAt("s1.go:1")
	rw.RLockAt("s1.go:2")
	c.LockAt("s1.go:3")
	if err := r1.Stop(); err != nil {
		t.Fatal(err)
	}
	a.Unlock() // idle: session 1's stack entry is left behind

	r2, err := Start()
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Stop()
	c.Unlock() // before any session 2 acquisition: one anomaly
	b.LockAt("s2.go:1")
	a.LockAt("s2.go:2")
	rw.RLockAt("s2.go:3") // rw is read-held since session 1: not reentrant here
	rw.RUnlock()
	rw.RUnlock() // session 1's read lock: an anomaly
	a.Unlock()
	b.Unlock()

	tr := r2.snapshot()
	if err := trace.Validate(tr); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tp := range tr.Tuples {
		var held []string
		for _, h := range tp.Held {
			held = append(held, h.Lock)
		}
		got = append(got, tp.Lock+"|"+strings.Join(held, ","))
	}
	want := []string{"b|", "a|b", "rw|b,a"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("session 2 tuples (lock|held) = %v, want %v", got, want)
	}
	if st := r2.Stats(); st.Anomalies != 2 {
		t.Fatalf("anomalies = %d, want 2 (c and rw's session 1 read lock)", st.Anomalies)
	}
}

// TestSessionLabelKeepsHeldLocks: a mid-session Label starts a new
// thread identity, and a lock held across it stays in the new
// identity's held sets under the key it was recorded with.
func TestSessionLabelKeepsHeldLocks(t *testing.T) {
	a, b := NewMutex("a"), NewMutex("b")
	tr := record(t, func() {
		a.LockAt("l.go:1")
		Label("renamed")
		b.LockAt("l.go:2")
		b.Unlock()
		a.Unlock()
	})
	if len(tr.Tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(tr.Tuples))
	}
	first, second := tr.Tuples[0], tr.Tuples[1]
	if first.Thread != "main" || second.Thread != "renamed" || second.Pos != 0 {
		t.Fatalf("tuples = %+v, %+v", first, second)
	}
	if len(second.Held) != 1 || second.Held[0].Key != first.Key {
		t.Fatalf("held set = %+v, want a under key %v", second.Held, first.Key)
	}
}

// TestSessionIdleRecordsNothing: with no session active, every lock
// path skips the recorder entirely — no goroutine state, no lock
// naming, no allocation.
func TestSessionIdleRecordsNothing(t *testing.T) {
	if active.Load() != nil {
		t.Fatal("a session is active")
	}
	var m Mutex
	var rw RWMutex
	paths := map[string]func(){
		"Lock/Unlock":      func() { m.Lock(); m.Unlock() },
		"LockAt/Unlock":    func() { m.LockAt("x.go:1"); m.Unlock() },
		"TryLock/Unlock":   func() { m.TryLock(); m.Unlock() },
		"RLock/RUnlock":    func() { rw.RLock(); rw.RUnlock() },
		"RW Lock/Unlock":   func() { rw.Lock(); rw.Unlock() },
		"TryRLock/RUnlock": func() { rw.TryRLock(); rw.RUnlock() },
	}
	done := make(chan uint64)
	go func() {
		for name, f := range paths {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("%s: %v allocs per run, want 0", name, n)
			}
		}
		done <- goid()
	}()
	id := <-done
	if _, ok := goroutines.Load(id); ok {
		t.Error("idle locking registered goroutine state")
	}
	if m.name.p.Load() != nil || rw.name.p.Load() != nil {
		t.Error("idle locking named an anonymous mutex")
	}
}
