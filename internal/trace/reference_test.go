package trace_test

import (
	"fmt"
	"reflect"
	"testing"

	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/internal/workloads"
	"wolf/sim"
)

// refRecorder is the sim recorder's tuple logic from before
// trace.ThreadTuples: per-thread lock stacks and occurrence counters in
// maps of their own, with sim deciding reentrancy. It is the oracle the
// shared builder is checked against. It lives in the external test
// package so it can record registry workloads.
type refRecorder struct {
	ts       *vclock.Tracker
	tuples   []*trace.Tuple
	byThread map[string][]*trace.Tuple
	stacks   map[string][]trace.HeldLock
	occ      map[string]map[string]int
	data     []refData
}

// refData is the identity of one recorded data access.
type refData struct {
	key      trace.Key
	posAfter int
}

func newRefRecorder(ts *vclock.Tracker) *refRecorder {
	return &refRecorder{
		ts:       ts,
		byThread: make(map[string][]*trace.Tuple),
		stacks:   make(map[string][]trace.HeldLock),
		occ:      make(map[string]map[string]int),
	}
}

func (r *refRecorder) countKey(thread, site string) trace.Key {
	m := r.occ[thread]
	if m == nil {
		m = make(map[string]int)
		r.occ[thread] = m
	}
	m[site]++
	return trace.Key{Thread: thread, Site: site, Occ: m[site]}
}

func (r *refRecorder) nextKey(thread, site string) trace.Key {
	return trace.Key{Thread: thread, Site: site, Occ: r.occ[thread][site] + 1}
}

// acquire records a first acquisition.
func (r *refRecorder) acquire(thread string, tid sim.ThreadID, lock, site string, idx sim.Index, tau int) *trace.Tuple {
	stack := r.stacks[thread]
	key := r.countKey(thread, site)
	tp := &trace.Tuple{
		Thread:   thread,
		ThreadID: tid,
		Lock:     lock,
		Site:     site,
		Idx:      idx,
		Key:      key,
		Tau:      tau,
		Held:     append([]trace.HeldLock(nil), stack...),
		Pos:      len(r.byThread[thread]),
	}
	r.tuples = append(r.tuples, tp)
	r.byThread[thread] = append(r.byThread[thread], tp)
	r.stacks[thread] = append(stack, trace.HeldLock{Lock: lock, Idx: idx, Key: key, Site: site})
	return tp
}

// release removes the most recent matching stack entry, if any.
func (r *refRecorder) release(thread, lock string) {
	stack := r.stacks[thread]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].Lock == lock {
			r.stacks[thread] = append(stack[:i:i], stack[i+1:]...)
			return
		}
	}
}

// access records a data access.
func (r *refRecorder) access(thread, site string) refData {
	d := refData{key: r.countKey(thread, site), posAfter: len(r.byThread[thread])}
	r.data = append(r.data, d)
	return d
}

// OnEvent implements sim.Listener.
func (r *refRecorder) OnEvent(ev sim.Event) {
	name := ev.Thread.Name()
	switch ev.Op.Kind {
	case sim.OpLock, sim.OpWaitResume:
		if ev.Reentrant {
			return
		}
		tau := vclock.Bottom
		if r.ts != nil {
			tau = r.ts.Tau(ev.Thread.ID())
		}
		r.acquire(name, ev.Thread.ID(), ev.Op.Lock.Name(), ev.Op.Site, ev.Index, tau)
	case sim.OpLoad, sim.OpStore:
		r.access(name, ev.Op.Site)
	case sim.OpUnlock, sim.OpWait:
		if !ev.Reentrant {
			r.release(name, ev.Op.Lock.Name())
		}
	}
}

// TestRecorderMatchesReference: over every registry workload and
// several seeds, trace.Recorder and the reference record the same run
// tuple for tuple — every field, held set included — and give every
// data access the same key and position.
func TestRecorderMatchesReference(t *testing.T) {
	for _, wl := range workloads.Registry() {
		t.Run(wl.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				prog, opts := wl.New()
				vt := vclock.NewTracker()
				rec := trace.NewRecorder(vt)
				ref := newRefRecorder(vt)
				opts.Listeners = append(opts.Listeners, vt, rec, ref)
				opts.MaxSteps = 50000
				sim.Run(prog, sim.NewRandomStrategy(seed), opts)
				tr := rec.Finish(seed)
				if len(tr.Tuples) != len(ref.tuples) {
					t.Fatalf("seed %d: %d tuples, reference %d", seed, len(tr.Tuples), len(ref.tuples))
				}
				for i, tp := range tr.Tuples {
					if !reflect.DeepEqual(*tp, *ref.tuples[i]) {
						t.Fatalf("seed %d tuple %d:\n got %+v\nwant %+v", seed, i, *tp, *ref.tuples[i])
					}
				}
				if len(tr.Data) != len(ref.data) {
					t.Fatalf("seed %d: %d data events, reference %d", seed, len(tr.Data), len(ref.data))
				}
				for i, de := range tr.Data {
					if got := (refData{de.Key, de.PosAfter}); got != ref.data[i] {
						t.Fatalf("seed %d data event %d: %+v, reference %+v", seed, i, got, ref.data[i])
					}
				}
			}
		})
	}
}

// FuzzThreadTuplesMatchReference drives ThreadTuples and the reference
// with random per-thread sequences: acquisitions, reentrant
// re-acquisitions, releases in any order, monitor wait and resume,
// loads and stores, and releases of locks the thread does not hold. A
// model of sim's monitors supplies the reentrancy flags. The first
// input byte picks how the builder is driven: as trace.Recorder drives
// it, with sim filtering reentrant events and waits allowed, or as
// wolfsync drives it, with every event and the builder deciding
// reentrancy (Go mutexes have no wait).
func FuzzThreadTuplesMatchReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 3, 0, 6, 2, 9, 1, 12, 0, 15, 2})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 5, 6, 0, 6, 0, 6, 1, 6, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 12, 0, 15, 0, 18, 1, 21, 2, 6, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		simMode := in[0]%2 == 0
		const nThreads = 3
		type model struct {
			depth   map[string]int
			waiting string // the monitor a parked thread waits on
			saved   int
			seq     int
		}
		ref := newRefRecorder(nil)
		ts := make(trace.Threads)
		var bs [nThreads]*trace.ThreadTuples
		var ms [nThreads]*model
		for i := range bs {
			bs[i] = ts.Get(fmt.Sprintf("t%d", i))
			ms[i] = &model{depth: make(map[string]int)}
		}
		for step, i := 0, 1; i+1 < len(in); step, i = step+1, i+2 {
			th := int(in[i]) % nThreads
			kind := int(in[i]) / nThreads % 8
			lock := fmt.Sprintf("L%d", in[i+1]%4)
			site := fmt.Sprintf("s%d", in[i+1]/4%4)
			b, m := bs[th], ms[th]
			name, tid := b.Name(), sim.ThreadID(th)
			if m.waiting != "" && kind != 5 {
				continue // parked until resumed
			}
			m.seq++
			idx := sim.Index{Thread: name, Seq: m.seq}
			switch kind {
			case 0, 1: // acquire, reentrant when held
				reentrant := m.depth[lock] > 0
				m.depth[lock]++
				if !reentrant {
					want := ref.acquire(name, tid, lock, site, idx, step)
					var got trace.Tuple
					if !b.Acquire(&got, lock, site, tid, idx, step) {
						t.Fatalf("step %d: first acquisition of %s by %s reported reentrant", step, lock, name)
					}
					if !reflect.DeepEqual(got, *want) {
						t.Fatalf("step %d:\n got %+v\nwant %+v", step, got, *want)
					}
				} else if !simMode {
					var got trace.Tuple
					if b.Acquire(&got, lock, site, tid, idx, step) {
						t.Fatalf("step %d: reentrant acquisition of %s by %s built %+v", step, lock, name, got)
					}
				}
			case 2, 3: // release, in any order; unmatched when not held
				held := m.depth[lock] > 0
				if held {
					m.depth[lock]--
				}
				if m.depth[lock] > 0 && simMode {
					continue // sim filters the reentrant release
				}
				if m.depth[lock] == 0 {
					ref.release(name, lock)
				}
				if got := b.Release(lock); got != held {
					t.Fatalf("step %d: Release(%s) by %s = %v, want %v", step, lock, name, got, held)
				}
			case 4: // wait: release the monitor entirely
				if !simMode || m.depth[lock] == 0 {
					continue
				}
				m.waiting, m.saved = lock, m.depth[lock]
				delete(m.depth, lock)
				ref.release(name, lock)
				if !b.Release(lock) {
					t.Fatalf("step %d: wait on held %s by %s released nothing", step, lock, name)
				}
			case 5: // resume: reacquire at the saved depth
				if m.waiting == "" {
					continue
				}
				lock, m.waiting = m.waiting, ""
				m.depth[lock] = m.saved
				want := ref.acquire(name, tid, lock, site, idx, step)
				var got trace.Tuple
				if !b.Acquire(&got, lock, site, tid, idx, step) || !reflect.DeepEqual(got, *want) {
					t.Fatalf("step %d resume:\n got %+v\nwant %+v", step, got, *want)
				}
			case 6, 7: // load, store
				want := ref.access(name, site)
				if peek := b.NextKey(site); peek != want.key {
					t.Fatalf("step %d: NextKey = %v, want %v", step, peek, want.key)
				}
				got := refData{b.CountKey(site), b.Pos()}
				if got != want {
					t.Fatalf("step %d: data %+v, want %+v", step, got, want)
				}
			}
		}
		for i, b := range bs {
			for s := range 4 {
				site := fmt.Sprintf("s%d", s)
				if got, want := b.NextKey(site), ref.nextKey(b.Name(), site); got != want {
					t.Fatalf("thread %d: NextKey(%s) = %v, want %v", i, site, got, want)
				}
			}
		}
	})
}
