package stream_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wolf/internal/core"
	"wolf/internal/detect"
	"wolf/internal/pruner"
	"wolf/internal/stream"
	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// recordTrace records one terminating run of the named workload.
func recordTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s not registered", name)
	}
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		t.Fatalf("no terminating seed for %s", name)
	}
	return core.Record(w.New, seed, 0)
}

// encode serializes a trace to WTRC bytes.
func encode(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cycleKey identifies a cycle instance by its exact tuples in
// canonical chain order, so stream and batch results compare as
// multisets without depending on discovery order.
func cycleKey(c *detect.Cycle) string {
	parts := make([]string, len(c.Tuples))
	for i, tp := range c.Tuples {
		parts[i] = fmt.Sprintf("%s|%s|%s|%d", tp.Thread, tp.Lock, tp.Site, tp.Pos)
	}
	return strings.Join(parts, "→")
}

// TestEngineMatchesBatchDetect: over the whole workload registry, the
// candidates the engine emits online — fed through the chunked decoder
// in small chunks — are exactly the batch detector's cycles, including
// canonical chain order, fingerprints, and pruner verdicts.
func TestEngineMatchesBatchDetect(t *testing.T) {
	for _, wl := range workloads.Registry() {
		t.Run(wl.Name, func(t *testing.T) {
			seed, ok := workloads.FindTerminatingSeed(wl.New, 300)
			if !ok {
				t.Skipf("no terminating seed for %s", wl.Name)
			}
			tr := core.Record(wl.New, seed, 0)
			data := encode(t, tr)

			// Batch reference: full-trace detection plus pruner verdicts.
			batch := detect.Cycles(tr, detect.Config{})
			res := pruner.Prune(batch, tr.Clocks)
			want := make(map[string]int)
			wantPruned := make(map[string]bool)
			for i, c := range batch {
				k := cycleKey(c)
				want[k]++
				wantPruned[k] = res.Verdicts[i] == pruner.False
			}

			// Streamed: decode in 512-byte chunks, drain into the engine.
			d := trace.NewDecoder(0)
			e := stream.NewEngine()
			var cands []stream.Candidate
			armed := false
			for off := 0; off < len(data); off += 512 {
				end := min(off+512, len(data))
				if err := d.Write(data[off:end]); err != nil {
					t.Fatal(err)
				}
				if !armed && d.HeaderDone() {
					e.SetClocks(d.Clocks())
					armed = true
				}
				for _, tp := range d.Events() {
					cands = append(cands, e.Add(tp)...)
				}
			}
			if !d.Done() {
				t.Fatal("decoder not done")
			}
			if e.Events() != len(tr.Tuples) {
				t.Fatalf("engine saw %d events, want %d", e.Events(), len(tr.Tuples))
			}

			got := make(map[string]int)
			for _, c := range cands {
				k := cycleKey(c.Cycle)
				got[k]++
				if c.Pruned != wantPruned[k] {
					t.Errorf("cycle %s: stream pruned=%v, batch=%v", k, c.Pruned, wantPruned[k])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("stream found %d distinct cycles, batch %d\nstream: %v\nbatch: %v",
					len(got), len(want), got, want)
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("cycle %s: stream count %d, batch %d", k, got[k], n)
				}
			}

			// Fingerprints byte-identical to what the batch pipeline
			// derives from the same cycles.
			batchFPs := make(map[string]bool)
			for _, c := range batch {
				batchFPs[cycleKey(c)] = true
			}
			for _, c := range cands {
				if !batchFPs[cycleKey(c.Cycle)] {
					t.Errorf("stream-only cycle %s (fp %s)", cycleKey(c.Cycle), c.Fingerprint)
				}
			}
		})
	}
}

// TestEngineEmitsAtClosingEvent: the candidate's Event is the stream
// position of the last-arriving tuple — the earliest moment the cycle
// is knowable — not the end of the trace.
func TestEngineEmitsAtClosingEvent(t *testing.T) {
	tr := recordTrace(t, "Figure4")
	batch := detect.Cycles(tr, detect.Config{})
	if len(batch) == 0 {
		t.Fatal("Figure4 produced no cycles")
	}

	pos := make(map[*trace.Tuple]int)
	for i, tp := range tr.Tuples {
		pos[tp] = i + 1
	}

	e := stream.NewEngine()
	e.SetClocks(tr.Clocks)
	var cands []stream.Candidate
	for _, tp := range tr.Tuples {
		cands = append(cands, e.Add(tp)...)
	}
	if len(cands) != len(batch) {
		t.Fatalf("engine emitted %d candidates, batch found %d", len(cands), len(batch))
	}
	for _, c := range cands {
		last := 0
		for _, tp := range c.Cycle.Tuples {
			last = max(last, pos[tp])
		}
		if c.Event != last {
			t.Errorf("candidate %s: emitted at event %d, closing tuple at %d",
				c.Signature, c.Event, last)
		}
		if c.Event == len(tr.Tuples) && last != len(tr.Tuples) {
			t.Errorf("candidate %s deferred to end of trace", c.Signature)
		}
	}
}

// FuzzChunkedDecoder: for arbitrary bytes and arbitrary split points,
// the streaming path — the chunked decoder draining into the engine —
// and the batch path (ReadBinary, then detect.Cycles) agree on
// accept/reject, and on accept produce identical traces and the same
// multiset of cycles.
func FuzzChunkedDecoder(f *testing.F) {
	for _, wl := range []string{"Figure4", "Figure9"} {
		w, ok := workloads.ByName(wl)
		if !ok {
			continue
		}
		if seed, ok := workloads.FindTerminatingSeed(w.New, 300); ok {
			f.Add(encode(f, core.Record(w.New, seed, 0)), uint64(3))
		}
	}
	f.Add([]byte("WTRC"), uint64(1))
	f.Add([]byte{}, uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, splitSeed uint64) {
		batch, batchErr := trace.ReadBinary(bytes.NewReader(data))

		// Huge budget: equivalence is about parsing, not shedding.
		d := trace.NewDecoder(1 << 30)
		e := stream.NewEngine()
		var cands []stream.Candidate
		var streamErr error
		armed := false
		rng := splitSeed
		for off := 0; off < len(data) && streamErr == nil; {
			rng = rng*6364136223846793005 + 1442695040888963407
			end := min(off+1+int(rng>>33)%64, len(data))
			streamErr = d.Write(data[off:end])
			off = end
			if streamErr == nil {
				if !armed && d.HeaderDone() {
					e.SetClocks(d.Clocks())
					armed = true
				}
				for _, tp := range d.Events() {
					cands = append(cands, e.Add(tp)...)
				}
			}
		}
		var streamed *trace.Trace
		if streamErr == nil {
			streamed, streamErr = d.Finalize()
		}

		if (batchErr == nil) != (streamErr == nil) {
			t.Fatalf("accept mismatch: batch=%v stream=%v", batchErr, streamErr)
		}
		if batchErr != nil {
			return
		}
		if !bytes.Equal(encode(t, batch), encode(t, streamed)) {
			t.Fatal("decoded traces differ between batch and chunked paths")
		}
		want := make(map[string]int)
		for _, c := range detect.Cycles(batch, detect.Config{}) {
			want[cycleKey(c)]++
		}
		got := make(map[string]int)
		for _, c := range cands {
			got[cycleKey(c.Cycle)]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("stream cycles %v, batch cycles %v", got, want)
		}
	})
}
