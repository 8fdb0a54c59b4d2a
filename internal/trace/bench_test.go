package trace

import (
	"bytes"
	"testing"

	"wolf/internal/vclock"
	"wolf/sim"
)

// benchProgram: several threads with nested sections and data traffic.
func benchProgram(iters int) (sim.Program, sim.Options) {
	var a, b, c *sim.Lock
	var v *sim.Var
	opts := sim.Options{Setup: func(w *sim.World) {
		a, b, c = w.NewLock("A"), w.NewLock("B"), w.NewLock("C")
		v = w.NewVar("v", 0)
	}}
	prog := func(th *sim.Thread) {
		var hs []*sim.Thread
		for i := 0; i < 4; i++ {
			hs = append(hs, th.Go("w", func(u *sim.Thread) {
				for j := 0; j < iters; j++ {
					u.Lock(a, "s1")
					u.Lock(b, "s2")
					u.Store(v, j, "s3")
					u.Unlock(b, "s4")
					u.Lock(c, "s5")
					u.Unlock(c, "s6")
					u.Unlock(a, "s7")
				}
			}, "m"))
		}
		for _, h := range hs {
			th.Join(h, "j")
		}
	}
	return prog, opts
}

// BenchmarkRecorder measures full extended-detector instrumentation
// (vector clocks + Dσ recording) per recorded run.
func BenchmarkRecorder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, opts := benchProgram(20)
		vt := vclock.NewTracker()
		rec := NewRecorder(vt)
		opts.Listeners = append(opts.Listeners, vt, rec)
		out := sim.Run(prog, sim.NewRandomStrategy(int64(i)), opts)
		if out.Kind == sim.ProgramError {
			b.Fatal(out)
		}
		if tr := rec.Finish(int64(i)); len(tr.Tuples) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkBareRun is the uninstrumented baseline for BenchmarkRecorder
// (their ratio is the Table 1 slowdown statistic at micro scale).
func BenchmarkBareRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, opts := benchProgram(20)
		out := sim.Run(prog, sim.NewRandomStrategy(int64(i)), opts)
		if out.Kind == sim.ProgramError {
			b.Fatal(out)
		}
	}
}

// BenchmarkSerialize measures trace write+read round trips.
func BenchmarkSerialize(b *testing.B) {
	prog, opts := benchProgram(20)
	vt := vclock.NewTracker()
	rec := NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	sim.Run(prog, sim.NewRandomStrategy(1), opts)
	tr := rec.Finish(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discard
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// discard is an io.Writer that counts bytes.
type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// largeTrace records a large trace (hundreds of tuples) for the
// JSON-vs-binary codec comparison: the wolfd ingest hot path.
func largeTrace(b *testing.B) *Trace {
	b.Helper()
	prog, opts := benchProgram(200)
	vt := vclock.NewTracker()
	rec := NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	opts.MaxSteps = 1 << 20
	sim.Run(prog, sim.NewRandomStrategy(1), opts)
	tr := rec.Finish(1)
	if len(tr.Tuples) < 100 {
		b.Fatalf("trace too small: %d tuples", len(tr.Tuples))
	}
	return tr
}

// BenchmarkEncodeJSON / BenchmarkEncodeBinary compare the two codecs on
// the same large trace; bytes/op makes the size difference visible.
func BenchmarkEncodeJSON(b *testing.B) {
	tr := largeTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discard
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.n))
	}
}

func BenchmarkEncodeBinary(b *testing.B) {
	tr := largeTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discard
		if err := tr.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.n))
	}
}

func BenchmarkDecodeJSON(b *testing.B) {
	tr := largeTrace(b)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBinary decodes the large trace two ways: ReadBinary,
// which feeds the decoder 4 KiB reads, and Decoder.Write in the stream
// door's 1 KiB chunks.
func BenchmarkDecodeBinary(b *testing.B) {
	tr := largeTrace(b)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chunk1KiB", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			d := NewDecoder(0)
			for off := 0; off < len(data); off += 1 << 10 {
				if err := d.Write(data[off:min(off+1<<10, len(data))]); err != nil {
					b.Fatal(err)
				}
				d.Events()
			}
			if _, err := d.Finalize(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
