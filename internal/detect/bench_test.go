package detect

import (
	"testing"

	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/internal/workloads"
	"wolf/sim"
)

// recordWorkload records one run of f under seed's random schedule,
// the way the pipeline records (timestamps on). Runs that end in a
// program error report false; deadlocked runs still yield a trace.
func recordWorkload(f sim.Factory, seed int64) (*trace.Trace, bool) {
	prog, opts := f()
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	if out := sim.Run(prog, sim.NewRandomStrategy(seed), opts); out.Kind == sim.ProgramError {
		return nil, false
	}
	return rec.Finish(seed), true
}

// registryTraces records every registry workload once, at its first
// terminating seed (as the stream parity tests do).
func registryTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	var out []*trace.Trace
	for _, wl := range workloads.Registry() {
		seed, ok := workloads.FindTerminatingSeed(wl.New, 300)
		if !ok {
			continue
		}
		if tr, ok := recordWorkload(wl.New, seed); ok {
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		tb.Fatal("no registry workload recorded")
	}
	return out
}

// BenchmarkCycles measures batch detection (reduction plus chain
// search) over one recorded trace of every registry workload per op.
func BenchmarkCycles(b *testing.B) {
	traces := registryTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			cyclesSink = Cycles(tr, Config{})
		}
	}
}

// cyclesSink keeps the benchmarked result live.
var cyclesSink []*Cycle
