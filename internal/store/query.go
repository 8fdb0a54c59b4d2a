package store

// The fingerprint query layer. Defects() returns the whole corpus
// sorted one way — fine for a demo, useless at millions of records and
// the reason GET /v1/defects was unbounded. Query filters by the
// dimensions operators actually slice on (defect class, workload,
// confirmation method, first/last-seen window, occurrence floor),
// paginates, and sorts server-side.
//
// The index is a set of in-memory postings: for each equality dimension
// a map from value to the fingerprint set carrying it, plus one slice
// of records ordered by last-seen for time-window narrowing. Postings
// are rebuilt from the defect map on Open (warm or cold — they are
// derived state, never persisted) and maintained incrementally on every
// record update. Query picks the smallest applicable posting as the
// candidate set, so an equality-filtered query touches only matching
// records, not the corpus.

import (
	"math"
	"sort"
	"strings"
	"time"
)

// QueryOptions selects and orders defect records. Zero values mean
// "don't filter on this dimension".
type QueryOptions struct {
	Class          string    // "candidate" or "confirmed"
	Workload       string    // workload name recorded at ingest
	Method         string    // confirmation method ("replay", ...)
	Since          time.Time // LastSeen >= Since
	Until          time.Time // FirstSeen <= Until
	MinOccurrences int       // Occurrences >= MinOccurrences

	// Sort is one of "occurrences" (default: most-seen first),
	// "last_seen" (newest first), "first_seen" (oldest first) or "rank"
	// (highest corpus rank first). Ties break on fingerprint so pages
	// are stable.
	Sort string

	// Limit caps the returned page; 0 means no cap. Offset skips that
	// many records after sorting.
	Limit  int
	Offset int
}

// QueryResult is one page of defect records plus the total number of
// records matching the filters, so callers can paginate.
type QueryResult struct {
	Defects []DefectRecord
	Total   int
}

// validSorts gates QueryOptions.Sort; the server maps anything else to
// a 400 before calling Query.
var validSorts = map[string]bool{
	"": true, "occurrences": true, "last_seen": true, "first_seen": true, "rank": true,
}

// ValidSort reports whether name is an accepted Query sort order.
func ValidSort(name string) bool { return validSorts[name] }

// postings is the in-memory inverted index over defect records.
type postings struct {
	class    map[string]map[string]bool // class value -> fingerprint set
	workload map[string]map[string]bool
	method   map[string]map[string]bool

	// byLastSeen orders fingerprints by LastSeen ascending for
	// time-window candidate narrowing. Appends mark it unsorted; it is
	// re-sorted lazily on the next windowed query.
	byLastSeen []string
	sorted     bool

	// adds counts posting insertions, the work a fold spends here.
	adds int
}

func newPostings() *postings {
	return &postings{
		class:    make(map[string]map[string]bool),
		workload: make(map[string]map[string]bool),
		method:   make(map[string]map[string]bool),
	}
}

// add inserts fp into m's set for key; an empty key posts nothing.
func (p *postings) add(m map[string]map[string]bool, key, fp string) {
	if key == "" {
		return
	}
	p.adds++
	set, ok := m[key]
	if !ok {
		set = make(map[string]bool)
		m[key] = set
	}
	set[fp] = true
}

func dropPosting(m map[string]map[string]bool, key, fp string) {
	if set, ok := m[key]; ok {
		delete(set, fp)
		if len(set) == 0 {
			delete(m, key)
		}
	}
}

// indexDefectLocked (re-)registers a record's class and method in the
// postings after any mutation, and all its workloads when the record is
// new; a fold posts only the workload it appends. Class moves
// candidate->confirmed and method is set once, so stale keys are
// dropped by diffing against the record's current values. Caller holds
// s.mu.
func (s *Store) indexDefectLocked(rec *DefectRecord, isNew bool) {
	fp := rec.Fingerprint
	if isNew {
		s.postings.byLastSeen = append(s.postings.byLastSeen, fp)
		s.postings.sorted = false
	} else {
		// LastSeen only moves forward; order may have changed.
		s.postings.sorted = false
		for key, set := range s.postings.class {
			if key != rec.Class && set[fp] {
				dropPosting(s.postings.class, key, fp)
			}
		}
		for key, set := range s.postings.method {
			if key != rec.Method && set[fp] {
				dropPosting(s.postings.method, key, fp)
			}
		}
	}
	s.postings.add(s.postings.class, rec.Class, fp)
	s.postings.add(s.postings.method, rec.Method, fp)
	if isNew {
		for _, w := range rec.Workloads {
			s.postings.add(s.postings.workload, w, fp)
		}
	}
}

// rebuildPostingsLocked derives the postings from the defect map; run
// once at Open. Caller holds s.mu.
func (s *Store) rebuildPostingsLocked() {
	s.postings = newPostings()
	for _, rec := range s.defects {
		s.indexDefectLocked(rec, true)
	}
}

// candidatesLocked picks the cheapest candidate fingerprint set for the
// given filters: the smallest equality posting when one applies, else a
// binary-searched slice of the last-seen ordering for Since windows,
// else everything. Caller holds s.mu.
func (s *Store) candidatesLocked(opts QueryOptions) []string {
	var best map[string]bool
	consider := func(m map[string]map[string]bool, key string) {
		if key == "" {
			return
		}
		set := m[key] // nil when no record carries the value: empty result
		if best == nil || len(set) < len(best) {
			if set == nil {
				set = map[string]bool{}
			}
			best = set
		}
	}
	consider(s.postings.class, opts.Class)
	consider(s.postings.workload, opts.Workload)
	consider(s.postings.method, opts.Method)
	if best != nil {
		out := make([]string, 0, len(best))
		for fp := range best {
			out = append(out, fp)
		}
		return out
	}
	if !opts.Since.IsZero() {
		if !s.postings.sorted {
			sort.Slice(s.postings.byLastSeen, func(i, j int) bool {
				a, b := s.defects[s.postings.byLastSeen[i]], s.defects[s.postings.byLastSeen[j]]
				return a.LastSeen.Before(b.LastSeen)
			})
			s.postings.sorted = true
		}
		ordered := s.postings.byLastSeen
		lo := sort.Search(len(ordered), func(i int) bool {
			return !s.defects[ordered[i]].LastSeen.Before(opts.Since)
		})
		out := make([]string, len(ordered)-lo)
		copy(out, ordered[lo:])
		return out
	}
	out := make([]string, 0, len(s.defects))
	for fp := range s.defects {
		out = append(out, fp)
	}
	return out
}

// Query returns the page of defect records matching opts plus the total
// match count. Returned records are clones with the corpus Rank filled
// in; mutating them does not touch the store.
func (s *Store) Query(opts QueryOptions) QueryResult {
	now := time.Now()
	s.mu.Lock()
	s.ensureDefectsLocked()
	matched := make([]*DefectRecord, 0, 16)
	for _, fp := range s.candidatesLocked(opts) {
		rec := s.defects[fp]
		if rec == nil || !matchDefect(rec, opts) {
			continue
		}
		matched = append(matched, rec)
	}
	// Clone inside the lock (records are mutated under s.mu), sort the
	// clones outside it.
	page := make([]DefectRecord, len(matched))
	for i, rec := range matched {
		page[i] = rec.clone()
	}
	s.mu.Unlock()

	for i := range page {
		page[i].Rank = scoreDefect(page[i].Class == ClassConfirmed, page[i].Occurrences, page[i].LastSeen, now)
	}
	sortDefects(page, opts.Sort)
	total := len(page)
	if opts.Offset > 0 {
		if opts.Offset >= len(page) {
			page = nil
		} else {
			page = page[opts.Offset:]
		}
	}
	if opts.Limit > 0 && len(page) > opts.Limit {
		page = page[:opts.Limit]
	}
	return QueryResult{Defects: page, Total: total}
}

// scoreDefect is the corpus-level triage score of one defect record:
// the cross-run counterpart of core's Report.Rank, which only orders the
// cycles of a single analysis. A confirmed reproduction dominates
// everything (the paper's replay oracle is the strongest evidence
// available), occurrence count contributes logarithmically (a defect
// seen in 100 runs is more urgent than one seen twice, but not 50x),
// and recency adds a decaying bonus with a one-week half-life so
// actively-recurring defects surface above historical ones.
func scoreDefect(confirmed bool, occurrences int, lastSeen, now time.Time) float64 {
	var score float64
	if confirmed {
		score += 1000
	}
	if occurrences > 0 {
		score += 10 * math.Log2(1+float64(occurrences))
	}
	if !lastSeen.IsZero() {
		ageDays := now.Sub(lastSeen).Hours() / 24
		if ageDays < 0 {
			ageDays = 0
		}
		score += 5 * math.Exp2(-ageDays/7)
	}
	return score
}

func matchDefect(rec *DefectRecord, opts QueryOptions) bool {
	if opts.Class != "" && rec.Class != opts.Class {
		return false
	}
	if opts.Method != "" && rec.Method != opts.Method {
		return false
	}
	if opts.Workload != "" && !containsString(rec.Workloads, opts.Workload) {
		return false
	}
	if !opts.Since.IsZero() && rec.LastSeen.Before(opts.Since) {
		return false
	}
	if !opts.Until.IsZero() && rec.FirstSeen.After(opts.Until) {
		return false
	}
	if opts.MinOccurrences > 0 && rec.Occurrences < opts.MinOccurrences {
		return false
	}
	return true
}

func sortDefects(recs []DefectRecord, order string) {
	less := func(i, j int) bool { // default: occurrences desc
		if recs[i].Occurrences != recs[j].Occurrences {
			return recs[i].Occurrences > recs[j].Occurrences
		}
		return recs[i].Fingerprint < recs[j].Fingerprint
	}
	switch order {
	case "last_seen":
		less = func(i, j int) bool {
			if !recs[i].LastSeen.Equal(recs[j].LastSeen) {
				return recs[i].LastSeen.After(recs[j].LastSeen)
			}
			return recs[i].Fingerprint < recs[j].Fingerprint
		}
	case "first_seen":
		less = func(i, j int) bool {
			if !recs[i].FirstSeen.Equal(recs[j].FirstSeen) {
				return recs[i].FirstSeen.Before(recs[j].FirstSeen)
			}
			return recs[i].Fingerprint < recs[j].Fingerprint
		}
	case "rank":
		less = func(i, j int) bool {
			if recs[i].Rank != recs[j].Rank {
				return recs[i].Rank > recs[j].Rank
			}
			return recs[i].Fingerprint < recs[j].Fingerprint
		}
	}
	sort.Slice(recs, less)
}

// workloadFromSource extracts the workload name from a job source tag:
// NAME for "workload:NAME", the door's name "stream" for every
// "stream:ID" (as uploads index under "upload"), else the tag itself.
// Empty sources index nothing.
func workloadFromSource(source string) string {
	if w, ok := strings.CutPrefix(source, "workload:"); ok {
		return w
	}
	if strings.HasPrefix(source, "stream:") {
		return "stream"
	}
	return source
}
