package core

import "sort"

// Rank orders the report's defects for human triage, implementing the
// ranking the paper proposes in Section 4.4: instead of discarding
// Pruner/Generator verdicts outright, defects are sorted so that
// automatically confirmed deadlocks come first, unknowns follow (those
// with smaller synchronization dependency graphs first — they take the
// least effort to comprehend manually), and provable false positives
// sink to the bottom (Generator refutations above Pruner refutations,
// since the latter rest on the stronger ordering evidence).
//
// The returned slice is freshly allocated; the report is not modified.
func (r *Report) Rank() []*DefectReport {
	out := append([]*DefectReport(nil), r.Defects...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ca, cb := classRank(a.Class), classRank(b.Class)
		if ca != cb {
			return ca < cb
		}
		if a.Class == Unknown {
			ga, gb := minGs(a), minGs(b)
			if ga != gb {
				return ga < gb
			}
		}
		return a.Signature < b.Signature
	})
	return out
}

// classRank orders classifications by triage priority.
func classRank(c Classification) int {
	switch c {
	case Confirmed:
		return 0
	case Unknown:
		return 1
	case FalseByData:
		return 2
	case FalseByGenerator:
		return 3
	default: // FalseByPruner
		return 4
	}
}

// minGs is the smallest Gs across a defect's unrefuted cycles; defects
// without any graph sort last among unknowns.
func minGs(d *DefectReport) int {
	best := int(^uint(0) >> 1)
	for _, cr := range d.Cycles {
		if cr.GsSize > 0 && cr.GsSize < best {
			best = cr.GsSize
		}
	}
	return best
}
