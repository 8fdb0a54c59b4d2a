package stream_test

import (
	"testing"

	"wolf/internal/core"
	"wolf/internal/stream"
	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// BenchmarkEngine feeds the engine, tuple by tuple, one terminating
// recording of every registry workload per op: the stream door's
// analysis cost without decoding.
func BenchmarkEngine(b *testing.B) {
	var trs []*trace.Trace
	tuples := 0
	for _, wl := range workloads.Registry() {
		seed, ok := workloads.FindTerminatingSeed(wl.New, 300)
		if !ok {
			continue
		}
		tr := core.Record(wl.New, seed, 0)
		trs = append(trs, tr)
		tuples += len(tr.Tuples)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, tr := range trs {
			e := stream.NewEngine()
			e.SetClocks(tr.Clocks)
			for _, tp := range tr.Tuples {
				e.Add(tp)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tuples), "ns/tuple")
}
