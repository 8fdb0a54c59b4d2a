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

// Engine is the incremental half of the Extended Dynamic Cycle
// Detector: it maintains the lock graph ("who holds ℓ" postings) and
// per-thread lockset state online, and emits each cycle exactly once —
// when the tuple that closes it arrives.
//
// Equivalence with the batch detector: detect.Cycles roots its chain
// search at the cycle's minimum-thread tuple and therefore finds each
// cyclic sequence once. The engine instead roots at the newest tuple η:
// since stream order is trace order, every cycle has a unique
// last-arriving member, and rooting there also finds each cyclic
// sequence exactly once — the same set, discovered online. Candidates
// are rotated back to the batch-canonical form before emission, so
// fingerprints, signatures, and chain order are byte-identical to the
// batch path.
//
// Engine is not safe for concurrent use; the server serializes chunk
// appends per stream.
type Engine struct {
	clocks []vclock.Vector
	heldBy map[string][]*trace.Tuple
	events int
	total  int

	chain []*trace.Tuple
	found []*detect.Cycle
}

// NewEngine returns an empty incremental detector bounding cycles at
// detect.DefaultMaxLength threads, like batch detection.
func NewEngine() *Engine {
	return &Engine{heldBy: make(map[string][]*trace.Tuple)}
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
	if tp == nil || len(tp.Held) == 0 {
		// Holds nothing: nobody can wait on it, so it can neither extend
		// nor close a chain (batch detection skips these roots too).
		return nil
	}
	e.found = e.found[:0]
	e.chain = e.chain[:0]
	e.extend(tp)
	var out []Candidate
	for _, cyc := range e.found {
		out = append(out, e.emit(cyc))
	}
	// Publish tp's holdings only after the search: a tuple cannot be
	// its own predecessor in a chain.
	for _, h := range tp.Held {
		e.heldBy[h.Lock] = append(e.heldBy[h.Lock], tp)
	}
	return out
}

// extend grows the chain rooted at the newest tuple. Invariant:
// chain[i+1] holds lock(chain[i]); closing requires chain[0] to hold
// the last tuple's wanted lock. Mirrors detector.extend except the
// root is the arrival-maximal tuple instead of the thread-minimal one.
func (e *Engine) extend(tp *trace.Tuple) {
	e.chain = append(e.chain, tp)
	defer func() { e.chain = e.chain[:len(e.chain)-1] }()

	first := e.chain[0]
	if len(e.chain) >= 2 && first.HoldsLock(tp.Lock) {
		e.found = append(e.found, &detect.Cycle{
			Tuples: canonical(append([]*trace.Tuple(nil), e.chain...)),
		})
	}
	if len(e.chain) == detect.DefaultMaxLength {
		return
	}
	for _, next := range e.heldBy[tp.Lock] {
		if detect.Conflicts(e.chain, next) {
			continue
		}
		e.extend(next)
	}
}

// canonical rotates the chain so the lexicographically smallest thread
// comes first — the batch detector's canonical form. Threads in a
// cycle are distinct, so the rotation is unique.
func canonical(chain []*trace.Tuple) []*trace.Tuple {
	minAt := 0
	for i, tp := range chain {
		if tp.Thread < chain[minAt].Thread {
			minAt = i
		}
	}
	if minAt == 0 {
		return chain
	}
	rotated := make([]*trace.Tuple, 0, len(chain))
	rotated = append(rotated, chain[minAt:]...)
	rotated = append(rotated, chain[:minAt]...)
	return rotated
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
