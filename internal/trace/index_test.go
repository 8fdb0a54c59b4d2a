package trace

import (
	"fmt"
	"testing"
)

// indexTrace builds a synthetic trace directly (the index only depends
// on Tuples and Data): nThreads writer/reader pairs, each with nEvents
// stores observed by the paired reader, plus a small lock vocabulary so
// postings have depth.
func indexTrace(nPairs, nEvents int) *Trace {
	tr := &Trace{
		byThread:     make(map[string][]*Tuple),
		dataByThread: make(map[string][]*DataEvent),
	}
	for p := 0; p < nPairs; p++ {
		w := fmt.Sprintf("w%d", p)
		r := fmt.Sprintf("r%d", p)
		for i := 0; i < 3; i++ {
			tp := &Tuple{
				Thread: w,
				Lock:   fmt.Sprintf("L%d", i+1),
				Site:   fmt.Sprintf("s%d", i),
				Key:    Key{Thread: w, Site: fmt.Sprintf("s%d", i), Occ: 1},
				Held:   []HeldLock{{Lock: fmt.Sprintf("L%d", i)}},
				Pos:    i,
			}
			tr.Tuples = append(tr.Tuples, tp)
			tr.byThread[w] = append(tr.byThread[w], tp)
		}
		for i := 0; i < nEvents; i++ {
			st := &DataEvent{
				Thread: w,
				Var:    fmt.Sprintf("v%d_%d", p, i),
				Store:  true,
				Site:   "st",
				Key:    Key{Thread: w, Site: "st", Occ: i + 1},
			}
			ld := &DataEvent{
				Thread:   r,
				Var:      st.Var,
				Site:     "ld",
				Key:      Key{Thread: r, Site: "ld", Occ: i + 1},
				Observed: st.Key,
			}
			tr.Data = append(tr.Data, st, ld)
			tr.dataByThread[w] = append(tr.dataByThread[w], st)
			tr.dataByThread[r] = append(tr.dataByThread[r], ld)
		}
	}
	return tr
}

// scanStore is the pre-index linear resolution (what sdg.findStore did),
// kept as the reference the index is checked against.
func scanStore(tr *Trace, key Key) *DataEvent {
	for _, de := range tr.DataByThread(key.Thread) {
		if de.Key == key {
			return de
		}
	}
	return nil
}

// TestIndexStoreResolvesAllProducers: on a trace with many data events,
// every load's observed producer resolves through the index to exactly
// the event the linear scan finds — same pointer, store-typed, matching
// key.
func TestIndexStoreResolvesAllProducers(t *testing.T) {
	tr := indexTrace(4, 200)
	idx := tr.Index()
	loads := 0
	for _, de := range tr.Data {
		if de.Store || de.Observed.Zero() {
			continue
		}
		loads++
		got := idx.Store(de.Observed)
		want := scanStore(tr, de.Observed)
		if got == nil || got != want {
			t.Fatalf("Store(%v) = %v, scan found %v", de.Observed, got, want)
		}
		if !got.Store || got.Key != de.Observed {
			t.Fatalf("Store(%v) resolved to wrong event %v", de.Observed, got)
		}
	}
	if loads != 4*200 {
		t.Fatalf("exercised %d loads, want %d", loads, 4*200)
	}
	if idx.Store(Key{Thread: "w0", Site: "nope", Occ: 1}) != nil {
		t.Fatal("unknown key resolved")
	}
}

// TestIndexPostings: interning and per-thread per-lock acquisition
// postings agree with the raw trace.
func TestIndexPostings(t *testing.T) {
	tr := indexTrace(2, 3)
	idx := tr.Index()

	if idx.NumThreads() != 4 { // w0, w1 acquire; r0, r1 only touch data
		t.Fatalf("NumThreads = %d, want 4", idx.NumThreads())
	}
	if _, ok := idx.ThreadID("r0"); !ok {
		t.Fatal("data-only thread not interned")
	}
	if idx.NumLocks() != 4 { // L0 (held only), L1..L3
		t.Fatalf("NumLocks = %d, want 4", idx.NumLocks())
	}

	// Acquisition postings: w0 acquires L2 exactly once, in program order.
	acq := idx.AcquiresOf("w0", "L2")
	if len(acq) != 1 || acq[0].Thread != "w0" || acq[0].Lock != "L2" {
		t.Fatalf("AcquiresOf(w0, L2) = %v", acq)
	}
	if got := idx.AcquiresOf("w0", "absent"); got != nil {
		t.Fatalf("AcquiresOf absent lock = %v", got)
	}
	if got := idx.AcquiresOf("absent", "L2"); got != nil {
		t.Fatalf("AcquiresOf absent thread = %v", got)
	}

	// Program order within a posting list.
	all := idx.AcquiresOf("w0", "L1")
	for i := 1; i < len(all); i++ {
		if all[i-1].Pos >= all[i].Pos {
			t.Fatal("posting list out of program order")
		}
	}

	// Name round-trip.
	if id, _ := idx.ThreadID("w1"); idx.ThreadName(id) != "w1" {
		t.Fatal("thread name round-trip")
	}
	if id, _ := idx.LockID("L3"); idx.LockName(id) != "L3" {
		t.Fatal("lock name round-trip")
	}
}

// TestIndexIdempotent: Index() returns the same instance every call.
func TestIndexIdempotent(t *testing.T) {
	tr := indexTrace(1, 1)
	if tr.Index() != tr.Index() {
		t.Fatal("Index rebuilt")
	}
}

// BenchmarkStoreResolve pins the speedup of the index's store map over
// the linear scan the Generator used to do per load.
func BenchmarkStoreResolve(b *testing.B) {
	tr := indexTrace(1, 5000)
	keys := make([]Key, 0, 5000)
	for _, de := range tr.Data {
		if !de.Store {
			keys = append(keys, de.Observed)
		}
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if scanStore(tr, keys[i%len(keys)]) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		idx := tr.Index()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if idx.Store(keys[i%len(keys)]) == nil {
				b.Fatal("miss")
			}
		}
	})
}
