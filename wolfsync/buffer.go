package wolfsync

import (
	"sync/atomic"

	"wolf/internal/trace"
)

// shardCount is the number of independent push heads in the event
// buffer. Goroutines hash to shards by runtime ID; 64 heads keep CAS
// contention negligible for any realistic goroutine count.
const shardCount = 64

// event is one recorded acquisition, a node in a shard's Treiber
// stack. The tuple is fully built by the recording goroutine, so the
// drainer never touches goroutine-local state; it lives inside the
// node, so recording it is one allocation.
type event struct {
	next *event
	tup  trace.Tuple
}

// bufShard is one push head, padded to its own cache line so CAS
// traffic on neighbouring shards does not false-share.
type bufShard struct {
	head atomic.Pointer[event]
	_    [64 - 8]byte
}

// buffer is the lock-free sharded event buffer between instrumented
// goroutines and the drainer. Push is one CAS on the goroutine's
// shard; drain swaps every head to nil and reverses the lists.
//
// Ordering invariant: a goroutine always pushes to the same shard, and
// a swap takes the whole list — so any drain observes a prefix of each
// goroutine's event sequence, and concatenating drains preserves every
// goroutine's program order. That is exactly the per-thread ordering
// trace.Validate demands; the interleaving across goroutines is
// arbitrary, as in any real trace.
type buffer struct {
	shards [shardCount]bufShard
	size   atomic.Int64
}

// push adds an event to the shard, refusing when the buffer holds max
// events already (the recorder counts the drop). The size check is
// racy by design — a handful of events over the cap is fine, blocking
// the program is not.
func (b *buffer) push(shard uint32, ev *event, max int64) bool {
	if b.size.Load() >= max {
		return false
	}
	h := &b.shards[shard].head
	for {
		old := h.Load()
		ev.next = old
		if h.CompareAndSwap(old, ev) {
			b.size.Add(1)
			return true
		}
	}
}

// drain detaches every shard's list and returns the tuples in
// per-goroutine program order (shard by shard, each list reversed from
// its push order). Callers serialize drains (the recorder's mutex);
// pushes proceed concurrently and are simply picked up next time.
func (b *buffer) drain() []*trace.Tuple {
	var out []*trace.Tuple
	for i := range b.shards {
		h := &b.shards[i].head
		var head *event
		for {
			head = h.Load()
			if head == nil {
				break
			}
			if h.CompareAndSwap(head, nil) {
				break
			}
		}
		if head == nil {
			continue
		}
		// Reverse the LIFO list back into push order.
		var n int64
		var rev *event
		for e := head; e != nil; {
			next := e.next
			e.next = rev
			rev = e
			n++
			e = next
		}
		b.size.Add(-n)
		for e := rev; e != nil; e = e.next {
			out = append(out, &e.tup)
		}
	}
	return out
}
