package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"wolf/internal/vclock"
	"wolf/sim"
)

// recordFig4 produces a timestamped Figure 4 trace for codec tests.
func recordFig4(t *testing.T) *Trace {
	t.Helper()
	prog, opts, _ := fig4()
	vt := vclock.NewTracker()
	rec := NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	out := sim.Run(prog, sim.FirstEnabled{}, opts)
	if out.Kind != sim.Terminated {
		t.Fatalf("outcome = %v", out)
	}
	return rec.Finish(42)
}

// TestBinaryRoundTrip: every field survives a binary write/read cycle.
func TestBinaryRoundTrip(t *testing.T) {
	tr := recordFig4(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, got, tr)
}

// TestDecodeSniffsFormat: Decode reads both encodings of the same trace.
func TestDecodeSniffsFormat(t *testing.T) {
	tr := recordFig4(t)
	var js, bin bytes.Buffer
	if err := tr.Write(&js); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"json": js.Bytes(), "binary": bin.Bytes()} {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertTracesEqual(t, got, tr)
	}
}

// assertTracesEqual compares every serialized field of two traces.
func assertTracesEqual(t *testing.T, got, want *Trace) {
	t.Helper()
	if got.Seed != want.Seed || got.Steps != want.Steps {
		t.Fatalf("metadata: seed=%d steps=%d, want %d/%d", got.Seed, got.Steps, want.Seed, want.Steps)
	}
	if !reflect.DeepEqual(got.Taus, want.Taus) {
		t.Fatalf("taus = %v, want %v", got.Taus, want.Taus)
	}
	if !reflect.DeepEqual(got.Clocks, want.Clocks) {
		t.Fatalf("clocks = %v, want %v", got.Clocks, want.Clocks)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("tuples = %d, want %d", len(got.Tuples), len(want.Tuples))
	}
	for i, w := range want.Tuples {
		g := got.Tuples[i]
		if g.Thread != w.Thread || g.ThreadID != w.ThreadID || g.Lock != w.Lock ||
			g.Site != w.Site || g.Idx != w.Idx || g.Key != w.Key || g.Tau != w.Tau ||
			g.Pos != w.Pos || !reflect.DeepEqual(g.Held, w.Held) {
			t.Fatalf("tuple %d = %+v, want %+v", i, g, w)
		}
	}
	for _, th := range want.Threads() {
		if len(got.ByThread(th)) != len(want.ByThread(th)) {
			t.Fatalf("byThread[%s] not rebuilt", th)
		}
	}
}

// corruptBinary returns a valid binary encoding mutated by f.
func corruptBinary(t *testing.T, f func([]byte) []byte) []byte {
	t.Helper()
	tr := recordFig4(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return f(buf.Bytes())
}

// TestReadErrorPaths: malformed input in either codec fails cleanly with
// an error, never a panic.
func TestReadErrorPaths(t *testing.T) {
	badVersion := func(b []byte) []byte {
		out := append([]byte(nil), b[:4]...)
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], 99)
		out = append(out, tmp[:n]...)
		// Skip the original version uvarint.
		_, used := binary.Uvarint(b[4:])
		return append(out, b[4+used:]...)
	}
	cases := []struct {
		name string
		data []byte
		read func(b []byte) error
	}{
		{"json/empty", []byte(""), readJSON},
		{"json/garbage", []byte("not json"), readJSON},
		{"json/truncated", []byte(`{"version":1,"tuples":[{"Thread":"m"`), readJSON},
		{"json/bad-version", []byte(`{"version":99,"tuples":[]}`), readJSON},
		{"json/null-tuple", []byte(`{"version":1,"tuples":[null]}`), readJSON},
		{"json/out-of-order-pos", []byte(`{"version":1,"tuples":[{"Thread":"main","Lock":"L","Pos":5}]}`), readJSON},
		{"binary/empty", []byte(""), readBin},
		{"binary/bad-magic", []byte("XXXXrest"), readBin},
		{"binary/magic-only", []byte("WTRC"), readBin},
		{"binary/bad-version", corruptBinary(t, badVersion), readBin},
		{"binary/truncated-half", corruptBinary(t, func(b []byte) []byte { return b[:len(b)/2] }), readBin},
		{"binary/truncated-tail", corruptBinary(t, func(b []byte) []byte { return b[:len(b)-3] }), readBin},
		{"binary/huge-string-len", append([]byte("WTRC\x01\x00\x00\x00\x00\x01"), 0xff, 0xff, 0xff, 0xff, 0x7f), readBin},
		{"decode/empty", []byte(""), readDecode},
		{"decode/truncated-binary", corruptBinary(t, func(b []byte) []byte { return b[:6] }), readDecode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.read(tc.data); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
}

func readJSON(b []byte) error   { _, err := Read(bytes.NewReader(b)); return err }
func readBin(b []byte) error    { _, err := ReadBinary(bytes.NewReader(b)); return err }
func readDecode(b []byte) error { _, err := Decode(bytes.NewReader(b)); return err }

// TestBinaryOutOfOrderPos: positions are validated on decode like the
// JSON reader does.
func TestBinaryOutOfOrderPos(t *testing.T) {
	tr := recordFig4(t)
	tr.Tuples[0].Pos = 5
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected position error")
	} else if !strings.Contains(err.Error(), "position") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// FuzzTraceRead: arbitrary bytes through every reader — JSON, Decode,
// ReadBinary, and the Decoder fed in one Write or in random chunk
// splits — must return an error or a consistent trace, never panic.
// The encoder, Validate and split invariance are the oracle: one Write
// and any chunking agree on accept/reject and on the error family, and
// on accept produce traces that pass Validate and re-encode byte for
// byte through WriteBinary. Valid encodings are seeded so the fuzzer
// starts from structurally interesting inputs.
func FuzzTraceRead(f *testing.F) {
	prog, opts, _ := fig4()
	vt := vclock.NewTracker()
	rec := NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	sim.Run(prog, sim.FirstEnabled{}, opts)
	tr := rec.Finish(7)
	var js, bin bytes.Buffer
	if err := tr.Write(&js); err != nil {
		f.Fatal(err)
	}
	if err := tr.WriteBinary(&bin); err != nil {
		f.Fatal(err)
	}
	f.Add(js.Bytes(), uint64(0))
	f.Add(bin.Bytes(), uint64(3))
	f.Add([]byte(`{"version":1,"tuples":[]}`), uint64(0))
	f.Add([]byte("WTRC\x01"), uint64(1))
	// Adversarial seeds: truncated valid stream, oversized collection
	// counts (tau, clock, string, tuple), oversized string length — the
	// length-prefix attacks the Decoder caps allocation against.
	f.Add(bin.Bytes()[:len(bin.Bytes())/2], uint64(5))
	f.Add(bin.Bytes()[:len(bin.Bytes())-3], uint64(7))
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}
	f.Add(append([]byte("WTRC\x01\x00\x00"), huge...), uint64(1))
	f.Add(append([]byte("WTRC\x01\x00\x00\x00"), huge...), uint64(2))
	f.Add(append([]byte("WTRC\x01\x00\x00\x00\x00"), huge...), uint64(3))
	f.Add(append([]byte("WTRC\x01\x00\x00\x00\x00\x00"), huge...), uint64(4))
	f.Add(append([]byte("WTRC\x01\x00\x00\x00\x00\x01"), 0xff, 0xff, 0xff, 0xff, 0x7f), uint64(5))
	// A larger multi-thread trace with nested locksets, and the empty
	// input.
	bp, bopts := benchProgram(3)
	bvt := vclock.NewTracker()
	brec := NewRecorder(bvt)
	bopts.Listeners = append(bopts.Listeners, bvt, brec)
	sim.Run(bp, sim.NewRandomStrategy(1), bopts)
	var big bytes.Buffer
	if err := brec.Finish(1).WriteBinary(&big); err != nil {
		f.Fatal(err)
	}
	f.Add(big.Bytes(), uint64(11))
	f.Add([]byte{}, uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, splitSeed uint64) {
		for _, read := range []func([]byte) error{readJSON, readDecode} {
			_ = read(data)
		}

		whole := NewDecoder(0)
		oneErr := whole.Write(data)
		var one *Trace
		if oneErr == nil {
			one, oneErr = whole.Finalize()
		}

		chunked := NewDecoder(0)
		var splitErr error
		rng := splitSeed
		for off := 0; off < len(data) && splitErr == nil; {
			rng = rng*6364136223846793005 + 1442695040888963407
			end := min(off+1+int(rng>>33)%64, len(data))
			splitErr = chunked.Write(data[off:end])
			off = end
		}
		var split *Trace
		if splitErr == nil {
			split, splitErr = chunked.Finalize()
		}

		batch, batchErr := ReadBinary(bytes.NewReader(data))

		if errFamily(oneErr) != errFamily(splitErr) || errFamily(oneErr) != errFamily(batchErr) {
			t.Fatalf("error family differs: one write %v, chunked %v, ReadBinary %v", oneErr, splitErr, batchErr)
		}
		if oneErr != nil {
			return
		}
		if err := Validate(one); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		enc := encodeBinary(t, one)
		if !bytes.Equal(enc, encodeBinary(t, split)) || !bytes.Equal(enc, encodeBinary(t, batch)) {
			t.Fatal("chunked or reader decode re-encodes differently from one Write")
		}
		again, err := ReadBinary(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !bytes.Equal(enc, encodeBinary(t, again)) {
			t.Fatal("WriteBinary round trip is not byte-identical")
		}
	})
}

// errFamily names the error taxonomy branch err belongs to, with the
// corruption class for validation errors.
func errFamily(err error) string {
	var ve *ValidationError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ve):
		return "invalid:" + ve.Class
	case errors.Is(err, ErrInvalid):
		return "invalid"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrBudget):
		return "budget"
	}
	return "other: " + err.Error()
}

// encodeBinary serializes tr with WriteBinary.
func encodeBinary(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
