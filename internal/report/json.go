package report

import (
	"wolf/internal/core"
	"wolf/internal/fingerprint"
)

// JSONReport is the wire representation of a core.Report, served by the
// wolfd service and stable enough for external tooling: everything is
// plain strings and numbers, classifications use their String() names,
// and durations are nanoseconds.
type JSONReport struct {
	// Tool is the pipeline that produced the report.
	Tool string `json:"tool"`
	// Defects are the signature-grouped verdicts, in triage order.
	Defects []JSONDefect `json:"defects"`
	// Cycles are the per-cycle reports in discovery order.
	Cycles []JSONCycle `json:"cycles"`
	// Timings are the phase durations in nanoseconds.
	Timings JSONTimings `json:"timings"`
}

// JSONDefect is one defect (unique source-location signature).
type JSONDefect struct {
	// Signature is the canonical sorted site list.
	Signature string `json:"signature"`
	// Class is the defect verdict ("confirmed", "false(pruner)", ...).
	Class string `json:"class"`
	// Cycles counts the lock-graph cycles sharing the signature.
	Cycles int `json:"cycles"`
	// ReplayMethod says which pass confirmed the defect ("steering" or
	// "fallback"; empty unless confirmed).
	ReplayMethod string `json:"replay_method,omitempty"`
	// Divergence histograms failed steered attempts by reason for
	// unreproduced defects, e.g. {"max-steps": 2}.
	Divergence map[string]int `json:"divergence,omitempty"`
}

// JSONCycle is one detected potential deadlock.
type JSONCycle struct {
	// Threads are the participating threads, in cycle order.
	Threads []string `json:"threads"`
	// Locks are the locks being acquired, in cycle order.
	Locks []string `json:"locks"`
	// Sites are the deadlocking acquisition sites, in cycle order.
	Sites []string `json:"sites"`
	// Signature is the defect signature the cycle belongs to.
	Signature string `json:"signature"`
	// Fingerprint is the canonical corpus identity of the cycle (see
	// internal/fingerprint): stable across thread IDs and interleavings,
	// so clients can correlate reports with GET /v1/defects/{fp}.
	Fingerprint string `json:"fingerprint"`
	// Class is the cycle verdict.
	Class string `json:"class"`
	// PruneRule explains a false(pruner) verdict, empty otherwise.
	PruneRule string `json:"prune_rule,omitempty"`
	// GsSize is the synchronization dependency graph size (0 if pruned).
	GsSize int `json:"gs_size,omitempty"`
	// HasGraph reports whether a dot rendering is available.
	HasGraph bool `json:"has_graph"`
	// ReplayAttempts counts steered reproduction runs performed.
	ReplayAttempts int `json:"replay_attempts,omitempty"`
	// ReplayMethod says which pass confirmed the cycle, if any.
	ReplayMethod string `json:"replay_method,omitempty"`
	// FallbackAttempts counts PCT-randomized confirmation runs.
	FallbackAttempts int `json:"fallback_attempts,omitempty"`
	// Divergence histograms this cycle's failed steered attempts by
	// reason; non-empty for every unreproduced cycle that was replayed.
	Divergence map[string]int `json:"divergence,omitempty"`
	// Faults counts injected scheduling perturbations, when the analysis
	// ran under fault injection.
	Faults int `json:"faults,omitempty"`

	// edges are the sorted edge abstractions Fingerprint hashes. They
	// are not part of the wire form: a decoded report has none.
	edges []fingerprint.Edge
}

// Edges returns the sorted edge abstractions the cycle's fingerprint
// hashes, as FromCore computed them; nil for a decoded report.
func (c *JSONCycle) Edges() []fingerprint.Edge { return c.edges }

// JSONTimings mirrors core.Timings in nanoseconds.
type JSONTimings struct {
	UninstrumentedNs int64 `json:"uninstrumented_ns,omitempty"`
	InstrumentedNs   int64 `json:"instrumented_ns,omitempty"`
	CycleDetectNs    int64 `json:"cycle_detect_ns"`
	PruneNs          int64 `json:"prune_ns"`
	GenerateNs       int64 `json:"generate_ns"`
	ReplayNs         int64 `json:"replay_ns,omitempty"`
}

// FromCore converts a pipeline report into its wire representation.
// Each cycle's edge abstractions are computed once, hashed into its
// fingerprint and kept on the cycle (JSONCycle.Edges), so a completion
// reads its corpus summaries off the result.
func FromCore(rep *core.Report) *JSONReport {
	out := &JSONReport{
		Tool:    rep.Tool,
		Defects: []JSONDefect{},
		Cycles:  []JSONCycle{},
		Timings: JSONTimings{
			UninstrumentedNs: int64(rep.Timings.Uninstrumented),
			InstrumentedNs:   int64(rep.Timings.Instrumented),
			CycleDetectNs:    int64(rep.Timings.CycleDetect),
			PruneNs:          int64(rep.Timings.Prune),
			GenerateNs:       int64(rep.Timings.Generate),
			ReplayNs:         int64(rep.Timings.Replay),
		},
	}
	for _, d := range rep.Rank() {
		out.Defects = append(out.Defects, JSONDefect{
			Signature:    d.Signature,
			Class:        d.Class.String(),
			Cycles:       len(d.Cycles),
			ReplayMethod: string(d.Method),
			Divergence:   d.Divergence.ByName(),
		})
	}
	for _, cr := range rep.Cycles {
		jc := JSONCycle{
			Class:            cr.Class.String(),
			GsSize:           cr.GsSize,
			HasGraph:         cr.Gs != nil,
			ReplayAttempts:   cr.ReplayAttempts,
			ReplayMethod:     string(cr.ReplayMethod),
			FallbackAttempts: cr.FallbackAttempts,
			Divergence:       cr.Divergence.ByName(),
			Faults:           cr.Faults.Total(),
		}
		if c := cr.Cycle; c != nil {
			n := len(c.Tuples)
			jc.Threads, jc.Locks, jc.Sites = make([]string, n), make([]string, n), make([]string, n)
			for i, tp := range c.Tuples {
				jc.Threads[i], jc.Locks[i], jc.Sites[i] = tp.Thread, tp.Lock, tp.Site
			}
			jc.edges = fingerprint.Edges(c)
			jc.Signature, jc.Fingerprint = c.Signature(), fingerprint.Hash(jc.edges)
		}
		if cr.PruneReason != nil {
			jc.PruneRule = cr.PruneReason.Rule
		}
		out.Cycles = append(out.Cycles, jc)
	}
	return out
}
