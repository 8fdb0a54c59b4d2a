package store

// Trace garbage collection. Traces are the bulky half of the corpus
// (defect records are small JSON); at millions of recordings the blob
// directory grows without bound unless something prunes it. GC deletes
// trace blobs under two policies — a total-size budget and a per-blob
// age ceiling — with one invariant that dominates both: a trace listed
// in any defect record's Traces set is NEVER deleted, whatever its age
// or the budget pressure, because those blobs are the reproduction
// evidence the paper's replay oracle depends on.

import (
	"os"
	"sort"
	"time"
)

// GCPolicy bounds the trace corpus. Zero fields disable that bound.
type GCPolicy struct {
	// MaxBytes is the total trace-blob budget; when exceeded, unreferenced
	// blobs are deleted oldest-first until the corpus fits.
	MaxBytes int64
	// TTL deletes unreferenced blobs older than this outright.
	TTL time.Duration
}

// GCStats reports one collection pass.
type GCStats struct {
	Deleted        int   // blobs removed
	BytesReclaimed int64 // their summed sizes
	Kept           int   // blobs retained because a defect references them
}

// GC runs one collection pass under policy. It never deletes a trace
// referenced by any defect record: the referenced set is computed under
// the same lock that every defect mutation takes, so a trace recorded as
// confirming evidence is protected before GC can observe it unreferenced.
func (s *Store) GC(policy GCPolicy, now time.Time) GCStats {
	var stats GCStats
	if policy.MaxBytes <= 0 && policy.TTL <= 0 {
		return stats
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureDefectsLocked()

	referenced := make(map[string]bool)
	for _, rec := range s.defects {
		for _, h := range rec.Traces {
			referenced[h] = true
		}
	}

	var total int64
	candidates := make([]TraceInfo, 0, s.traces.len())
	s.traces.each(func(info TraceInfo) {
		total += info.Bytes
		if referenced[info.Hash] {
			stats.Kept++
			return
		}
		candidates = append(candidates, info)
	})
	sort.Slice(candidates, func(i, j int) bool {
		if !candidates[i].ModTime.Equal(candidates[j].ModTime) {
			return candidates[i].ModTime.Before(candidates[j].ModTime)
		}
		return candidates[i].Hash < candidates[j].Hash
	})

	cutoff := time.Time{}
	if policy.TTL > 0 {
		cutoff = now.Add(-policy.TTL)
	}
	for _, info := range candidates {
		expired := !cutoff.IsZero() && info.ModTime.Before(cutoff)
		overBudget := policy.MaxBytes > 0 && total > policy.MaxBytes
		if !expired && !overBudget {
			// Oldest-first order: no later candidate is expired either, and
			// the budget only loosens from here.
			break
		}
		if err := os.Remove(s.shardTracePath(info.Hash)); err != nil && !os.IsNotExist(err) {
			continue
		}
		s.markDirtyLocked()
		s.traces.del(info.Hash)
		total -= info.Bytes
		stats.Deleted++
		stats.BytesReclaimed += info.Bytes
		s.traceDeletes.Add(1)
	}
	s.gcRuns.Add(1)
	s.gcBytesReclaimed.Add(stats.BytesReclaimed)
	return stats
}
