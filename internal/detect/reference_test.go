package detect

import (
	"fmt"
	"testing"

	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// refCycles is the batch depth-first chain search the LockGraph
// replaced, kept as the reference the one search is checked against.
// It roots a search at every tuple in trace order, extends only
// through higher-named threads (so chain[0] is the cycle's minimum
// thread), visits children in posting (trace) order, and records a
// closing chain before extending it.
func refCycles(tuples []*trace.Tuple, maxLen int) []*Cycle {
	if maxLen <= 0 {
		maxLen = DefaultMaxLength
	}
	heldBy := make(map[string][]*trace.Tuple)
	for _, tp := range tuples {
		for _, h := range tp.Held {
			heldBy[h.Lock] = append(heldBy[h.Lock], tp)
		}
	}
	var found []*Cycle
	var chain []*trace.Tuple
	var extend func(tp *trace.Tuple)
	extend = func(tp *trace.Tuple) {
		chain = append(chain, tp)
		defer func() { chain = chain[:len(chain)-1] }()
		first := chain[0]
		if len(chain) >= 2 && first.HoldsLock(tp.Lock) {
			found = append(found, &Cycle{Tuples: append([]*trace.Tuple(nil), chain...)})
		}
		if len(chain) == maxLen {
			return
		}
	next:
		for _, nx := range heldBy[tp.Lock] {
			if nx.Thread <= first.Thread {
				continue
			}
			for _, c := range chain {
				if c.Thread == nx.Thread {
					continue next
				}
				for _, h := range nx.Held {
					if c.HoldsLock(h.Lock) {
						continue next
					}
				}
			}
			extend(nx)
		}
	}
	for _, tp := range tuples {
		if len(tp.Held) > 0 {
			extend(tp)
		}
	}
	return found
}

// sameCycles fails unless got and want hold the same tuples (by
// pointer) in the same cycle and chain order.
func sameCycles(t testing.TB, what string, got, want []*Cycle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cycles, reference %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Tuples, want[i].Tuples
		if len(g) != len(w) {
			t.Fatalf("%s: cycle %d is %v, reference %v", what, i, got[i], want[i])
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%s: cycle %d is %v, reference %v", what, i, got[i], want[i])
			}
		}
	}
}

// TestCyclesMatchReference: over the workload registry, several
// schedules and cycle bounds, with reduction and without, the one
// search returns exactly the reference's cycles in exactly its order.
func TestCyclesMatchReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 11, 19, 23}
	if testing.Short() {
		seeds = seeds[:2]
	}
	total := 0
	for _, wl := range workloads.Registry() {
		for _, seed := range seeds {
			tr, ok := recordWorkload(wl.New, seed)
			if !ok {
				continue
			}
			reduced := Reduce(tr.Tuples)
			for _, maxLen := range []int{0, 2, 3, 5} {
				what := fmt.Sprintf("%s seed %d MaxLength %d", wl.Name, seed, maxLen)
				want := refCycles(reduced, maxLen)
				sameCycles(t, what+" reduced", Cycles(tr, Config{MaxLength: maxLen}), want)
				sameCycles(t, what+" reference unreduced", refCycles(tr.Tuples, maxLen), want)
				sameCycles(t, what+" unreduced", search(tr.Tuples, maxLen), want)
				total += len(want)
			}
		}
	}
	if total == 0 {
		t.Fatal("registry produced no cycles to compare")
	}
	t.Logf("%d cycles match the reference", total)
}

// fuzzTuples decodes a tuple list from fuzz input: the first byte picks
// the thread and lock counts, then every two bytes are one tuple — its
// thread, the lock it acquires, and its held set as a bit mask over the
// other locks.
func fuzzTuples(data []byte) []*trace.Tuple {
	if len(data) == 0 {
		return nil
	}
	nThreads := 1 + int(data[0]&3) + int(data[0]>>6) // 1..7
	nLocks := 2 + int(data[0]>>2&7)                  // 2..9
	var out []*trace.Tuple
	for b := data[1:]; len(b) >= 2 && len(out) < 48; b = b[2:] {
		lock := int(b[1]) % nLocks
		tp := &trace.Tuple{
			Thread: fmt.Sprintf("t%d", int(b[0])%nThreads),
			Lock:   fmt.Sprintf("L%d", lock),
			Site:   fmt.Sprintf("s%d", len(out)),
		}
		mask := int(b[1])/nLocks | int(b[0])/nThreads<<4
		for l := 0; l < nLocks; l++ {
			if l != lock && mask&(1<<l) != 0 {
				tp.Held = append(tp.Held, trace.HeldLock{Lock: fmt.Sprintf("L%d", l)})
			}
		}
		out = append(out, tp)
	}
	return out
}

// FuzzCyclesMatchReference: on arbitrary tuple lists and cycle bounds,
// batch detection (reduced and unreduced) matches the reference search
// cycle for cycle and in order.
func FuzzCyclesMatchReference(f *testing.F) {
	f.Add(uint8(0), []byte{0x05, 0, 0x21, 1, 0x12})
	f.Add(uint8(3), []byte{0x4a, 0, 0x31, 1, 0x42, 2, 0x13, 3, 0x24, 4, 0x05})
	f.Add(uint8(5), []byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, maxLen uint8, data []byte) {
		tuples := fuzzTuples(data)
		m := int(maxLen % 7)
		want := refCycles(tuples, m)
		sameCycles(t, "unreduced", search(tuples, m), want)
		sameCycles(t, "reduced", Cycles(&trace.Trace{Tuples: tuples}, Config{MaxLength: m}), want)
	})
}
