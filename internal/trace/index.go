package trace

import "sync"

// Index is the per-trace analysis index: derived lookup structures that
// several pipeline phases need but that only depend on the immutable
// recorded trace, so they are computed once per trace instead of once
// per phase (or worse, once per cycle).
//
// It provides:
//
//   - thread and lock name interning to dense integer IDs, so phases can
//     use slices instead of string-keyed maps;
//   - per-thread per-lock acquisition postings in program order, which
//     turn the Generator's type-C candidate scan from "walk the whole
//     D'σ prefix for every context lock" into "walk exactly the
//     acquisitions of that lock";
//   - a store-key map resolving a load's observed producer in O(1)
//     instead of a linear scan over the producing thread's data events.
//
// An Index is immutable after construction and safe for concurrent use,
// which is what lets the parallel per-cycle fan-out in core share one
// index across workers. Build it via Trace.Index; construction is
// guarded by sync.Once, so concurrent callers get the same instance.
type Index struct {
	threadIDs map[string]int
	threads   []string
	lockIDs   map[string]int
	locks     []string
	// acquires[threadID][lockID] lists the thread's tuples acquiring
	// that lock, in program order (Tuple.Pos increasing).
	acquires []map[int][]*Tuple
	// stores maps a store's stable key to its recorded event.
	stores map[Key]*DataEvent
}

// Index returns the trace's analysis index, building it on first use.
// The trace must not be mutated after the first call; concurrent calls
// are safe and return the same index.
func (tr *Trace) Index() *Index {
	tr.idxOnce.Do(func() { tr.idx = buildIndex(tr) })
	return tr.idx
}

func buildIndex(tr *Trace) *Index {
	idx := &Index{
		threadIDs: make(map[string]int, 8),
		lockIDs:   make(map[string]int, 16),
		stores:    make(map[Key]*DataEvent),
	}
	for _, tp := range tr.Tuples {
		t := idx.internThread(tp.Thread)
		l := idx.internLock(tp.Lock)
		acq := idx.acquires[t]
		acq[l] = append(acq[l], tp)
		for _, h := range tp.Held {
			idx.internLock(h.Lock)
		}
	}
	for _, de := range tr.Data {
		idx.internThread(de.Thread)
		if de.Store {
			idx.stores[de.Key] = de
		}
	}
	return idx
}

func (idx *Index) internThread(name string) int {
	if id, ok := idx.threadIDs[name]; ok {
		return id
	}
	id := len(idx.threads)
	idx.threadIDs[name] = id
	idx.threads = append(idx.threads, name)
	idx.acquires = append(idx.acquires, make(map[int][]*Tuple, 4))
	return id
}

func (idx *Index) internLock(name string) int {
	if id, ok := idx.lockIDs[name]; ok {
		return id
	}
	id := len(idx.locks)
	idx.lockIDs[name] = id
	idx.locks = append(idx.locks, name)
	return id
}

// NumThreads returns the number of interned threads (threads that
// acquired a lock or touched a shared variable).
func (idx *Index) NumThreads() int { return len(idx.threads) }

// NumLocks returns the number of interned locks.
func (idx *Index) NumLocks() int { return len(idx.locks) }

// ThreadID returns the dense ID of the named thread.
func (idx *Index) ThreadID(name string) (int, bool) {
	id, ok := idx.threadIDs[name]
	return id, ok
}

// LockID returns the dense ID of the named lock.
func (idx *Index) LockID(name string) (int, bool) {
	id, ok := idx.lockIDs[name]
	return id, ok
}

// ThreadName returns the name of the thread with the given dense ID.
func (idx *Index) ThreadName(id int) string { return idx.threads[id] }

// LockName returns the name of the lock with the given dense ID.
func (idx *Index) LockName(id int) string { return idx.locks[id] }

// AcquiresOf returns thread's tuples acquiring lock, in program order
// (Tuple.Pos increasing). Callers slicing D'σ prefixes stop at the
// first tuple whose Pos reaches the deadlocking position.
func (idx *Index) AcquiresOf(thread, lock string) []*Tuple {
	t, ok := idx.threadIDs[thread]
	if !ok {
		return nil
	}
	l, ok := idx.lockIDs[lock]
	if !ok {
		return nil
	}
	return idx.acquires[t][l]
}

// Store resolves a store's stable key to its recorded event, or nil.
// This replaces the Generator's linear scan over the producing thread's
// data events.
func (idx *Index) Store(key Key) *DataEvent { return idx.stores[key] }

// indexOnce is the lazy-build guard embedded in Trace. It lives here so
// the Trace struct declaration stays focused on recorded data.
type indexOnce struct {
	idxOnce sync.Once
	idx     *Index
}
