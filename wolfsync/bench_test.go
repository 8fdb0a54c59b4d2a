package wolfsync

import (
	"sync"
	"testing"
	"time"
)

var benchGoid uint64

// BenchmarkMutex prices a Lock+Unlock pair: sync.Mutex as the floor,
// an idle wolfsync.Mutex (no session), a recorded one, and a recorded
// one contended by parallel goroutines over 4 locks.
func BenchmarkMutex(b *testing.B) {
	b.Run("sync", func(b *testing.B) {
		var mu sync.Mutex
		b.ReportAllocs()
		for b.Loop() {
			mu.Lock()
			mu.Unlock()
		}
	})
	b.Run("idle", func(b *testing.B) {
		m := NewMutex("idle")
		b.ReportAllocs()
		for b.Loop() {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("recording", func(b *testing.B) {
		m := NewMutex("recording")
		defer startDiscarding(b)()
		b.ReportAllocs()
		for b.Loop() {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("contended", func(b *testing.B) {
		var locks [4]*Mutex
		for i := range locks {
			locks[i] = NewMutex("contended")
		}
		defer startDiscarding(b)()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				m := locks[i%len(locks)]
				m.Lock()
				m.Unlock()
			}
		})
	})
}

// startDiscarding starts a session whose buffer a background goroutine
// drains and discards every millisecond, as a streaming sink would
// drain it, so memory stays flat however large b.N grows. The returned
// function stops both.
func startDiscarding(b *testing.B) func() {
	b.Helper()
	r, err := Start()
	if err != nil {
		b.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.mu.Lock()
				r.buf.drain()
				r.mu.Unlock()
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		if err := r.Stop(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoid prices goroutine identity: the calibrated read of the
// runtime's g against the runtime.Stack parse it falls back to.
func BenchmarkGoid(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		if goidOffset.Load() == 0 {
			b.Skip("calibration refused; goid parses runtime.Stack")
		}
		for b.Loop() {
			benchGoid = goid()
		}
	})
	b.Run("parse", func(b *testing.B) {
		for b.Loop() {
			benchGoid = parseGoid()
		}
	})
}
