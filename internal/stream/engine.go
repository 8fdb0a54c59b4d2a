// Package stream is the incremental deadlock detector behind wolfd's
// streaming ingestion: a client opens a stream, appends trace bytes in
// arbitrary chunks (decoded by trace.Decoder), and cycle candidates are
// emitted as soon as the closing acquisition arrives — long before the
// upload completes.
package stream

import (
	"wolf/internal/detect"
	"wolf/internal/fingerprint"
	"wolf/internal/pruner"
	"wolf/internal/trace"
	"wolf/internal/vclock"
)

// Candidate is one potential deadlock emitted mid-stream, the moment
// its closing acquisition arrived. It carries everything downstream
// consumers (corpus, wolfctl, dashboards) need without re-running
// detection on close.
type Candidate struct {
	// Cycle is the underlying chain in batch-canonical rotation
	// (first tuple belongs to the lexicographically smallest thread).
	Cycle *detect.Cycle `json:"-"`
	// Event is the 1-based stream position of the closing acquisition.
	Event int `json:"event"`
	// Fingerprint is the stable defect identity (fingerprint.Of).
	Fingerprint string `json:"fingerprint"`
	// Signature is the paper's sorted-sites defect signature.
	Signature string `json:"signature"`
	// Threads and Sites describe the cycle in cycle order.
	Threads []string `json:"threads"`
	Sites   []string `json:"sites"`
	// Pruned reports the online (S,J) vector-clock verdict: true means
	// the Pruner refuted the cycle as it closed (PruneRule says how).
	Pruned    bool   `json:"pruned"`
	PruneRule string `json:"prune_rule,omitempty"`
}

// Engine is wolfd's streaming front end to the Extended Dynamic Cycle
// Detector: it feeds each decoded tuple to a detect.LockGraph, the same
// chain search batch detection runs, and turns every cycle the tuple
// closes into a Candidate the moment it closes. It adds event
// counting, Candidate materialization and the online (S,J) Pruner.
// Because the search is the batch one, candidates carry the batch
// path's canonical rotation, fingerprints and signatures.
//
// Engine is not safe for concurrent use; the server serializes chunk
// appends per stream.
type Engine struct {
	graph  *detect.LockGraph
	clocks []vclock.Vector
	events int
	total  int
}

// NewEngine returns an empty incremental detector bounding cycles at
// detect.DefaultMaxLength threads, like batch detection.
func NewEngine() *Engine {
	return &Engine{graph: detect.NewLockGraph(detect.DefaultMaxLength)}
}

// SetClocks arms the online Pruner with the trace's (S,J) vector-clock
// table (available from the stream header before the first tuple).
// Without clocks, candidates are emitted unpruned, exactly as batch
// detection without the Pruner stage.
func (e *Engine) SetClocks(clocks []vclock.Vector) { e.clocks = clocks }

// Events returns the number of tuples fed so far.
func (e *Engine) Events() int { return e.events }

// Total returns the number of candidates emitted so far.
func (e *Engine) Total() int { return e.total }

// Add feeds the next tuple in trace order and returns the candidates
// it closes (usually none). The returned slice is freshly allocated.
func (e *Engine) Add(tp *trace.Tuple) []Candidate {
	e.events++
	if tp == nil {
		return nil
	}
	var out []Candidate
	for _, cyc := range e.graph.Add(tp) {
		out = append(out, e.emit(cyc))
	}
	return out
}

// emit materializes a Candidate, running the online Pruner when clocks
// are armed.
func (e *Engine) emit(cyc *detect.Cycle) Candidate {
	e.total++
	c := Candidate{
		Cycle:       cyc,
		Event:       e.events,
		Fingerprint: fingerprint.Of(cyc),
		Signature:   cyc.Signature(),
		Threads:     cyc.Threads(),
		Sites:       cyc.Sites(),
	}
	if len(e.clocks) > 0 {
		res := pruner.Prune([]*detect.Cycle{cyc}, e.clocks)
		if res.Verdicts[0] == pruner.False {
			c.Pruned = true
			c.PruneRule = res.Reasons[0].Rule
		}
	}
	return c
}
