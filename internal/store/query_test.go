package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// buildQueryCorpus populates a store with synthetic defect records
// spanning every query dimension, returning the store and the base
// time t0 (records are spread over the following n hours).
func buildQueryCorpus(t *testing.T, n int) (*Store, time.Time) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	workloads := []string{"Figure4", "Bank", "Dining", "Philo"}
	methods := []string{"", "steering", "fallback"}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		fp := fakeHash(i)
		method := methods[i%len(methods)]
		sums := []CycleSummary{{
			Fingerprint: fp,
			Signature:   fmt.Sprintf("sig-%d", i),
			Confirmed:   method != "",
			Method:      method,
		}}
		// Occurrences vary 1..4, spread over time.
		for occ := 0; occ <= i%4; occ++ {
			now := t0.Add(time.Duration(i) * time.Hour).Add(time.Duration(occ) * time.Minute)
			src := "workload:" + workloads[(i+occ)%len(workloads)]
			if _, err := s.RecordSummaries(ctx, fakeHash(10_000+i), sums, src, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, t0
}

// bruteForceQuery filters and sorts the full listing with the naive
// algorithm — the oracle Query must agree with.
func bruteForceQuery(s *Store, opts QueryOptions) []string {
	var out []DefectRecord
	for _, rec := range s.Defects() {
		if matchDefect(rec, opts) {
			out = append(out, rec.clone())
		}
	}
	sortDefects(out, opts.Sort)
	fps := make([]string, len(out))
	for i, rec := range out {
		fps[i] = rec.Fingerprint
	}
	return fps
}

// TestQueryMatchesBruteForce cross-checks Query against the naive
// filter-everything oracle over randomized option combinations.
func TestQueryMatchesBruteForce(t *testing.T) {
	s, t0 := buildQueryCorpus(t, 60)
	rng := rand.New(rand.NewSource(7))
	classes := []string{"", ClassCandidate, ClassConfirmed}
	workloads := []string{"", "Figure4", "Bank", "Dining", "nosuch"}
	methods := []string{"", "steering", "fallback"}
	sorts := []string{"", "occurrences", "last_seen", "first_seen", "rank"}
	for trial := 0; trial < 200; trial++ {
		opts := QueryOptions{
			Class:          classes[rng.Intn(len(classes))],
			Workload:       workloads[rng.Intn(len(workloads))],
			Method:         methods[rng.Intn(len(methods))],
			Sort:           sorts[rng.Intn(len(sorts))],
			MinOccurrences: rng.Intn(4),
		}
		if rng.Intn(2) == 0 {
			opts.Since = t0.Add(time.Duration(rng.Intn(70)) * time.Hour)
		}
		if rng.Intn(3) == 0 {
			opts.Until = t0.Add(time.Duration(rng.Intn(70)) * time.Hour)
		}
		want := bruteForceQuery(s, opts)
		res := s.Query(opts)
		if res.Total != len(want) {
			t.Fatalf("trial %d %+v: total = %d, want %d", trial, opts, res.Total, len(want))
		}
		got := make([]string, len(res.Defects))
		for i, rec := range res.Defects {
			got[i] = rec.Fingerprint
		}
		// rank sort uses wall-clock recency; order can tie-shift between
		// the two calls, so compare as sets for rank and exactly otherwise.
		if opts.Sort == "rank" {
			sort.Strings(got)
			w := append([]string(nil), want...)
			sort.Strings(w)
			want = w
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d %+v:\n got %v\nwant %v", trial, opts, got, want)
			}
		}
	}
}

// TestQueryPagination: limit/offset slice the sorted match set stably
// and total always reports the full count.
func TestQueryPagination(t *testing.T) {
	s, _ := buildQueryCorpus(t, 25)
	full := s.Query(QueryOptions{Sort: "occurrences"})
	if full.Total != 25 || len(full.Defects) != 25 {
		t.Fatalf("full query = %d/%d, want 25/25", len(full.Defects), full.Total)
	}
	var paged []string
	for offset := 0; offset < full.Total; offset += 7 {
		res := s.Query(QueryOptions{Sort: "occurrences", Limit: 7, Offset: offset})
		if res.Total != 25 {
			t.Fatalf("page total = %d, want 25", res.Total)
		}
		if len(res.Defects) > 7 {
			t.Fatalf("page size = %d, want <= 7", len(res.Defects))
		}
		for _, rec := range res.Defects {
			paged = append(paged, rec.Fingerprint)
		}
	}
	if len(paged) != 25 {
		t.Fatalf("pages covered %d records, want 25", len(paged))
	}
	for i, rec := range full.Defects {
		if paged[i] != rec.Fingerprint {
			t.Fatalf("page order diverges at %d: %s vs %s", i, paged[i], rec.Fingerprint)
		}
	}
	// Offset past the end is an empty page, not an error.
	if res := s.Query(QueryOptions{Offset: 1000}); len(res.Defects) != 0 || res.Total != 25 {
		t.Errorf("past-the-end page = %d records total %d", len(res.Defects), res.Total)
	}
}

// TestQuerySortOrders spot-checks each sort key's direction.
func TestQuerySortOrders(t *testing.T) {
	s, _ := buildQueryCorpus(t, 30)
	check := func(name string, cmp func(a, b DefectRecord) bool) {
		t.Helper()
		res := s.Query(QueryOptions{Sort: name})
		for i := 1; i < len(res.Defects); i++ {
			if cmp(res.Defects[i-1], res.Defects[i]) {
				t.Errorf("sort %q violated at %d", name, i)
				return
			}
		}
	}
	check("occurrences", func(a, b DefectRecord) bool { return a.Occurrences < b.Occurrences })
	check("last_seen", func(a, b DefectRecord) bool { return a.LastSeen.Before(b.LastSeen) })
	check("first_seen", func(a, b DefectRecord) bool { return a.FirstSeen.After(b.FirstSeen) })
	check("rank", func(a, b DefectRecord) bool { return a.Rank < b.Rank })
}

// TestQueryRankFillsScore: query results carry the corpus rank, and a
// confirmed defect outranks an unconfirmed one.
func TestQueryRankFillsScore(t *testing.T) {
	s, _ := buildQueryCorpus(t, 10)
	res := s.Query(QueryOptions{Sort: "rank"})
	if len(res.Defects) == 0 {
		t.Fatal("no records")
	}
	for _, rec := range res.Defects {
		if rec.Rank == 0 {
			t.Errorf("record %s has zero rank", rec.Fingerprint[:12])
		}
	}
	var bestCandidate, worstConfirmed float64 = -1, -1
	for _, rec := range res.Defects {
		if rec.Class == ClassConfirmed && (worstConfirmed < 0 || rec.Rank < worstConfirmed) {
			worstConfirmed = rec.Rank
		}
		if rec.Class == ClassCandidate && rec.Rank > bestCandidate {
			bestCandidate = rec.Rank
		}
	}
	if worstConfirmed >= 0 && bestCandidate >= 0 && worstConfirmed <= bestCandidate {
		t.Errorf("confirmed defect (%f) ranked below candidate (%f)", worstConfirmed, bestCandidate)
	}
}

// TestQueryEqualityUsesPostings: a workload filter must not touch
// records without that workload — verified behaviorally (unknown value
// yields an instant empty result even on a populated corpus).
func TestQueryEqualityUsesPostings(t *testing.T) {
	s, _ := buildQueryCorpus(t, 20)
	if res := s.Query(QueryOptions{Workload: "nosuch"}); res.Total != 0 {
		t.Errorf("unknown workload matched %d records", res.Total)
	}
	if res := s.Query(QueryOptions{Class: ClassConfirmed, Workload: "nosuch"}); res.Total != 0 {
		t.Errorf("unknown workload with class matched %d records", res.Total)
	}
	// The candidate set for an equality filter is the posting, not the
	// corpus: peek under the hood to keep the sublinear promise honest.
	s.mu.Lock()
	cands := s.candidatesLocked(QueryOptions{Workload: "Figure4"})
	total := len(s.defects)
	s.mu.Unlock()
	if len(cands) >= total {
		t.Errorf("workload posting did not narrow candidates: %d of %d", len(cands), total)
	}
}

// TestScoreDefect pins the corpus triage score's ordering properties:
// confirmation dominates, occurrences are monotone, and recency decays
// with a one-week half-life.
func TestScoreDefect(t *testing.T) {
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	fresh := now.Add(-time.Hour)

	// A confirmed singleton outranks any unconfirmed record, no matter
	// how often or recently the latter recurred.
	confirmed := scoreDefect(true, 1, now.Add(-365*24*time.Hour), now)
	hotCandidate := scoreDefect(false, 1_000_000, now, now)
	if confirmed <= hotCandidate {
		t.Fatalf("confirmed %f <= hot candidate %f", confirmed, hotCandidate)
	}

	// More occurrences never score lower.
	prev := -1.0
	for _, occ := range []int{0, 1, 2, 10, 100, 10_000} {
		s := scoreDefect(false, occ, fresh, now)
		if s <= prev {
			t.Fatalf("score not monotone in occurrences: occ=%d score=%f prev=%f", occ, s, prev)
		}
		prev = s
	}

	// Recency: newer last-seen scores higher, and a week of age halves
	// the recency component.
	recent := scoreDefect(false, 5, fresh, now)
	stale := scoreDefect(false, 5, now.Add(-30*24*time.Hour), now)
	if recent <= stale {
		t.Fatalf("recent %f <= stale %f", recent, stale)
	}
	base := scoreDefect(false, 5, time.Time{}, now)
	weekOld := scoreDefect(false, 5, now.Add(-7*24*time.Hour), now)
	atNow := scoreDefect(false, 5, now, now)
	if got, want := weekOld-base, (atNow-base)/2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("one-week decay = %f, want half of %f", got, atNow-base)
	}

	// A clock-skewed future last-seen clamps instead of exploding.
	if skew := scoreDefect(false, 5, now.Add(time.Hour), now); skew != atNow {
		t.Fatalf("future last-seen = %f, want clamped to %f", skew, atNow)
	}
}
