package trace_test

import (
	"bytes"
	"errors"
	"testing"

	"wolf/internal/core"
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

// feed streams data into d in chunks of at most size bytes.
func feed(t testing.TB, d *trace.Decoder, data []byte, size int) error {
	t.Helper()
	for off := 0; off < len(data); off += size {
		end := min(off+size, len(data))
		if err := d.Write(data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// TestDecoderEverySplitPoint: a two-chunk split at every byte offset
// reconstructs a trace that re-encodes byte-identically. This is the
// strongest resumability check: every varint, string, and the magic
// itself get straddled at some offset.
func TestDecoderEverySplitPoint(t *testing.T) {
	data := encode(t, recordTrace(t, "Figure4"))
	for cut := 0; cut <= len(data); cut++ {
		d := trace.NewDecoder(0)
		if err := d.Write(data[:cut]); err != nil {
			t.Fatalf("cut %d: first chunk: %v", cut, err)
		}
		if err := d.Write(data[cut:]); err != nil {
			t.Fatalf("cut %d: second chunk: %v", cut, err)
		}
		tr, err := d.Finalize()
		if err != nil {
			t.Fatalf("cut %d: finalize: %v", cut, err)
		}
		if got := encode(t, tr); !bytes.Equal(got, data) {
			t.Fatalf("cut %d: re-encoded trace differs from input", cut)
		}
	}
}

// TestDecoderSingleByteChunks: the degenerate chunking still works, and
// events drain in trace order, each tuple exactly once.
func TestDecoderSingleByteChunks(t *testing.T) {
	want := recordTrace(t, "Figure4")
	data := encode(t, want)
	d := trace.NewDecoder(0)
	var got []*trace.Tuple
	for _, b := range data {
		if err := d.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
		got = append(got, d.Events()...)
	}
	if !d.Done() {
		t.Fatal("decoder not done after full input")
	}
	if len(got) != len(want.Tuples) {
		t.Fatalf("drained %d events, want %d", len(got), len(want.Tuples))
	}
	for i, tp := range got {
		w := want.Tuples[i]
		if tp.Thread != w.Thread || tp.Lock != w.Lock || tp.Pos != w.Pos {
			t.Fatalf("event %d = %v, want %v", i, tp, w)
		}
	}
	if extra := d.Events(); len(extra) != 0 {
		t.Fatalf("second drain returned %d events, want 0", len(extra))
	}
}

// TestDecoderBudget: peak memory stays under a generous budget on the
// happy path, and a starved budget rejects with ErrBudget instead of
// buffering without bound.
func TestDecoderBudget(t *testing.T) {
	data := encode(t, recordTrace(t, "Figure4"))

	const budget = 256 << 10
	d := trace.NewDecoder(budget)
	if err := feed(t, d, data, 1024); err != nil {
		t.Fatal(err)
	}
	if d.Peak() > budget {
		t.Fatalf("peak memory %d exceeds budget %d", d.Peak(), budget)
	}
	if d.Peak() == 0 {
		t.Fatal("peak memory not tracked")
	}

	tiny := trace.NewDecoder(512)
	err := feed(t, tiny, data, 1024)
	if !errors.Is(err, trace.ErrBudget) {
		t.Fatalf("starved decoder error = %v, want ErrBudget", err)
	}
	// Sticky: later writes keep failing, nothing more is retained.
	if err := tiny.Write(data[:1]); !errors.Is(err, trace.ErrBudget) {
		t.Fatalf("write after budget error = %v, want ErrBudget", err)
	}
}

// TestDecoderCorrupt: structural damage is ErrCorrupt, at the moment
// the damaged bytes arrive.
func TestDecoderCorrupt(t *testing.T) {
	data := encode(t, recordTrace(t, "Figure4"))

	t.Run("magic", func(t *testing.T) {
		d := trace.NewDecoder(0)
		err := d.Write([]byte("JUNK and more"))
		if !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[4] = 99 // version uvarint
		d := trace.NewDecoder(0)
		if err := feed(t, d, bad, 3); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		d := trace.NewDecoder(0)
		if err := d.Write(data[:len(data)/2]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Finalize(); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("finalize = %v, want ErrCorrupt", err)
		}
	})
	t.Run("varint-overflow", func(t *testing.T) {
		// 11 continuation bytes where the version uvarint belongs,
		// split across chunks so the overflow itself is resumable.
		bad := append([]byte("WTRC"), bytes.Repeat([]byte{0xFF}, 11)...)
		d := trace.NewDecoder(0)
		if err := feed(t, d, bad, 2); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing-bytes-ignored", func(t *testing.T) {
		d := trace.NewDecoder(0)
		if err := feed(t, d, append(append([]byte{}, data...), "garbage"...), 7); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Finalize(); err != nil {
			t.Fatalf("finalize with trailing bytes: %v", err)
		}
	})
}

// TestDecoderInvalid: well-formed bytes describing an impossible
// execution are rejected mid-stream with the batch validator's
// corruption class, as soon as the offending tuple decodes.
func TestDecoderInvalid(t *testing.T) {
	tr := recordTrace(t, "Figure4")
	tr.Tuples[0].Key.Occ = 0 // contradicts the tuple: bad-key
	data := encode(t, tr)
	d := trace.NewDecoder(0)
	err := feed(t, d, data, 16)
	if !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
	var ve *trace.ValidationError
	if !errors.As(err, &ve) || ve.Class != trace.InvalidBadKey {
		t.Fatalf("err = %v, want ValidationError class %s", err, trace.InvalidBadKey)
	}
}
