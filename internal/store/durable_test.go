package store

// Durability of defects under the journal-as-record design: a verdict's
// defect delta rides on one journal append, and the defect files and
// index.bin are materializations of the journal. Whatever the crash
// point, every way of reopening the corpus must agree with the live
// store and with a reference fold of the record semantics.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"wolf/internal/fingerprint"
)

// refCorpus folds analyses by the corpus's definition: one occurrence
// per analysis and fingerprint, the first confirming method wins,
// traces and workloads keep first-seen order, and a call carrying any
// invalid fingerprint changes nothing.
type refCorpus map[string]*DefectRecord

func (r refCorpus) fold(traceHash, workload string, sums []CycleSummary, now time.Time) {
	for _, cs := range sums {
		if !validHash(cs.Fingerprint) {
			return
		}
	}
	seen := make(map[string]bool)
	for _, cs := range sums {
		if seen[cs.Fingerprint] {
			continue
		}
		seen[cs.Fingerprint] = true
		rec := r[cs.Fingerprint]
		if rec == nil {
			rec = &DefectRecord{Fingerprint: cs.Fingerprint, Signature: cs.Signature, Edges: cs.Edges,
				Class: ClassCandidate, FirstSeen: now}
			r[cs.Fingerprint] = rec
		}
		rec.Occurrences++
		rec.LastSeen = now
		if cs.Confirmed {
			rec.Class = ClassConfirmed
			if rec.Method == "" {
				rec.Method = cs.Method
			}
		}
		if traceHash != "" && !slices.Contains(rec.Traces, traceHash) {
			rec.Traces = append(rec.Traces, traceHash)
		}
		if workload != "" && !slices.Contains(rec.Workloads, workload) {
			rec.Workloads = append(rec.Workloads, workload)
		}
	}
}

// render lists the records in Defects order as JSON.
func (r refCorpus) render(t testing.TB) string {
	t.Helper()
	recs := make([]*DefectRecord, 0, len(r))
	for _, rec := range r {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Occurrences != recs[j].Occurrences {
			return recs[i].Occurrences > recs[j].Occurrences
		}
		return recs[i].Fingerprint < recs[j].Fingerprint
	})
	return renderDefects(t, recs)
}

func renderDefects(t testing.TB, recs []*DefectRecord) string {
	t.Helper()
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// Operations of a durability sequence.
const (
	opJob          = iota // a job's terminal record with its delta (upload, local or remote)
	opSync                // a job-less fold (POST /v1/analyze)
	opBadRemote           // a remote completion carrying one malformed fingerprint
	opTraceWrite          // a trace mutation: drops the dirty marker
	opSnapshot            // a snapshot, full or index.bin alone
	opCrash               // the process dies: no Close
	opTornSnapshot        // the process dies halfway through a snapshot
	numOps
)

type durableOp struct {
	kind    int
	trace   string
	source  string
	running bool // the job also journals a "running" record (coordinator leases)
	sums    []CycleSummary
}

// decodeDurableOps turns fuzz bytes into at most 24 operations over
// small pools of traces, sources and fingerprints, so that repeated
// traces, repeated and duplicate fingerprints, confirmations and empty
// summaries all occur.
func decodeDurableOps(data []byte) []durableOp {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	sources := []string{"upload", "workload:Figure4", "stream:s-000001", ""}
	methods := []string{"", "steering", "fallback"}
	var ops []durableOp
	for len(data) > 0 && len(ops) < 24 {
		b := next()
		op := durableOp{kind: b % numOps, running: b&0x80 != 0}
		switch op.kind {
		case opJob, opSync, opBadRemote:
			if x := next() % 4; x < 3 {
				op.trace = fakeHash(100 + x)
			}
			op.source = sources[next()%len(sources)]
			for n := next() % 4; n > 0; n-- {
				x := next()
				fp := x % 5
				op.sums = append(op.sums, CycleSummary{
					Fingerprint: fakeHash(500 + fp),
					Signature:   fmt.Sprintf("site.go:%d+site.go:%d", fp, fp+10),
					Edges:       []fingerprint.Edge{{Thread: "main", Lock: fmt.Sprintf("l%d", fp), Site: fmt.Sprintf("site.go:%d", fp)}},
					Confirmed:   x&8 != 0,
					Method:      methods[(x>>4)%len(methods)],
				})
			}
			if op.kind == opBadRemote {
				at := next() % (len(op.sums) + 1)
				op.sums = slices.Insert(op.sums, at, CycleSummary{Fingerprint: "../not-a-fingerprint"})
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// durableRun drives one operation sequence against a store and the
// reference, checking Defects after every reopen.
type durableRun struct {
	t    testing.TB
	dir  string
	s    *Store
	ref  refCorpus
	jobs int
	now  time.Time
}

func (r *durableRun) check(when string) {
	r.t.Helper()
	if got, want := renderDefects(r.t, r.s.Defects()), r.ref.render(r.t); got != want {
		r.t.Fatalf("defects %s differ from the reference fold:\n got %s\nwant %s", when, got, want)
	}
	if got := len(r.s.Jobs()); got != r.jobs {
		r.t.Fatalf("jobs %s = %d, want %d", when, got, r.jobs)
	}
}

// reopen abandons the store without Close, as a dying process does,
// and opens the directory again.
func (r *durableRun) reopen(when string) {
	r.t.Helper()
	r.s.jobs.close()
	s, err := Open(r.dir)
	if err != nil {
		r.t.Fatalf("open %s: %v", when, err)
	}
	r.s = s
	r.check(when)
}

func (r *durableRun) apply(i int, op durableOp) {
	r.t.Helper()
	ctx := context.Background()
	r.now = r.now.Add(time.Second)
	switch op.kind {
	case opJob, opBadRemote:
		r.jobs++
		id := fmt.Sprintf("j-%06d", r.jobs)
		states := []string{"queued"}
		if op.running {
			states = append(states, "running")
		}
		for _, state := range states {
			if err := r.s.AppendJob(JobRecord{ID: id, State: state, Source: op.source, TraceHash: op.trace}); err != nil {
				r.t.Fatal(err)
			}
		}
		rec := JobRecord{ID: id, State: "done", Source: op.source, TraceHash: op.trace, Finished: r.now}
		_, err := r.s.FinishJob(ctx, rec, op.sums)
		if (err != nil) != (op.kind == opBadRemote) {
			r.t.Fatalf("op %d: FinishJob err = %v", i, err)
		}
		r.ref.fold(op.trace, workloadFromSource(op.source), op.sums, r.now)
	case opSync:
		if _, err := r.s.RecordSummaries(ctx, op.trace, op.sums, op.source, r.now); err != nil {
			r.t.Fatalf("op %d: %v", i, err)
		}
		r.ref.fold(op.trace, workloadFromSource(op.source), op.sums, r.now)
	case opTraceWrite:
		r.s.mu.Lock()
		r.s.markDirtyLocked()
		r.s.mu.Unlock()
	case opSnapshot:
		// A full snapshot (SaveIndex, the job path's), or index.bin
		// alone (Close's), which leaves the defect files lagging.
		r.s.mu.Lock()
		err := r.s.saveIndexLocked(!op.running)
		r.s.mu.Unlock()
		if err != nil {
			r.t.Fatal(err)
		}
	case opCrash:
		r.reopen(fmt.Sprintf("after a crash at op %d", i))
	case opTornSnapshot:
		// The snapshot writes defect files first and index.bin last; die
		// after half of the files.
		r.s.mu.Lock()
		r.s.ensureDefectsLocked()
		fps := make([]string, 0, len(r.s.unsaved))
		for fp := range r.s.unsaved {
			fps = append(fps, fp)
		}
		sort.Strings(fps)
		for _, fp := range fps[:len(fps)/2] {
			if err := r.s.writeDefect(r.s.defects[fp]); err != nil {
				r.t.Fatal(err)
			}
		}
		r.s.mu.Unlock()
		r.reopen(fmt.Sprintf("after a crash inside a snapshot at op %d", i))
	}
}

// checkDurable runs ops and then checks the live store, a clean reopen
// (warm) and a cold reopen with index.bin deleted against the
// reference.
func checkDurable(t testing.TB, ops []durableOp) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &durableRun{t: t, dir: dir, s: s, ref: refCorpus{}, now: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
	for i, op := range ops {
		r.apply(i, op)
	}
	r.check("live")
	if err := r.s.Close(); err != nil {
		t.Fatal(err)
	}
	if r.s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if warm, _ := r.s.OpenInfo(); !warm {
		t.Error("open after a clean Close was not warm")
	}
	r.check("after a clean reopen")
	if err := r.s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "index.bin")); err != nil {
		t.Fatal(err)
	}
	if r.s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	r.check("after a cold reopen")
	r.s.Close()
}

// FuzzCrashEquivalence: random sequences of job completions (some with
// a lease record, some with a malformed fingerprint), job-less folds,
// trace mutations, snapshots and crashes — between operations and
// halfway through a snapshot — leave Defects identical live, after every
// crash, after a clean reopen, after a cold reopen, and to the
// reference fold.
func FuzzCrashEquivalence(f *testing.F) {
	f.Add([]byte{opJob, 0, 0, 2, 0x08, 0x11, opCrash})
	f.Add([]byte{opJob, 0, 1, 1, 0x00, opTraceWrite, opJob, 1, 0, 2, 0x18, 0x01, opCrash, opSync, 2, 3, 1, 0x28})
	f.Add([]byte{opJob, 0, 0, 3, 0x01, 0x02, 0x03, opSync, 1, 1, 2, 0x01, 0x04, opTornSnapshot, opJob, 0, 0, 1, 0x01, opCrash})
	f.Add([]byte{opJob | 0x80, 0, 0, 1, 0x02, opJob | 0x80, 1, 1, 1, 0x02, opSnapshot, opBadRemote, 2, 0, 1, 0x03, 0, opJob | 0x80, 2, 2, 2, 0x12, 0x03, opCrash})
	f.Add([]byte{opTraceWrite, opSync, 3, 3, 3, 0x08, 0x08, 0x09, opTornSnapshot, opTraceWrite, opJob, 0, 0, 2, 0x1c, 0x2c, opTornSnapshot})
	f.Add([]byte{opJob, 0, 0, 2, 0x01, 0x02, opSnapshot | 0x80, opCrash, opJob, 1, 1, 1, 0x02, opSnapshot | 0x80, opTraceWrite, opSync, 2, 0, 1, 0x03, opCrash, opTornSnapshot})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDurable(t, decodeDurableOps(data))
	})
}

// TestSnapshotEveryBoundsReplay: the job path takes a snapshot every
// snapshotEvery deltas, writing the folded defect files and index.bin,
// so what a crash leaves to replay stays bounded.
func TestSnapshotEveryBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	fp := fakeHash(7)
	sums := []CycleSummary{{Fingerprint: fp, Signature: "a+b"}}
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 1; i < snapshotEvery; i++ {
		if _, err := s.RecordSummaries(ctx, "", sums, "", now); err != nil {
			t.Fatal(err)
		}
	}
	path := s.shardDefectPath(fp)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("defect file written on the job path before a snapshot was due (stat err %v)", err)
	}
	if _, err := s.RecordSummaries(ctx, "", sums, "", now); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no defect file after %d deltas: %v", snapshotEvery, err)
	}
	var file defectFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Seq != snapshotEvery || file.Occurrences != snapshotEvery {
		t.Errorf("defect file seq=%d occurrences=%d, want %d and %d", file.Seq, file.Occurrences, snapshotEvery, snapshotEvery)
	}
	s.mu.Lock()
	unsaved := len(s.unsaved)
	s.mu.Unlock()
	if unsaved != 0 {
		t.Errorf("%d records still unsaved after the snapshot", unsaved)
	}
}

// TestRecordSummariesAllOrNothing: a call with one malformed
// fingerprint among valid ones changes no record and journals nothing.
func TestRecordSummariesAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	good := CycleSummary{Fingerprint: fakeHash(1), Signature: "a+b"}
	if _, err := s.RecordSummaries(ctx, fakeHash(2), []CycleSummary{good}, "upload", time.Now()); err != nil {
		t.Fatal(err)
	}
	before := renderDefects(t, s.Defects())
	lines := len(logLines(t, dir))
	bad := []CycleSummary{good, {Fingerprint: "../../etc/passwd"}}
	if updated, err := s.RecordSummaries(ctx, fakeHash(3), bad, "upload", time.Now()); err == nil || len(updated) != 0 {
		t.Fatalf("malformed fingerprint accepted: updated=%v err=%v", updated, err)
	}
	if got := renderDefects(t, s.Defects()); got != before {
		t.Errorf("a rejected call changed the corpus:\n got %s\nwant %s", got, before)
	}
	if got := len(logLines(t, dir)); got != lines {
		t.Errorf("a rejected job-less call journaled %d records", got-lines)
	}
	// A job's terminal record is still journaled, without a delta.
	rec := JobRecord{ID: "j-000001", State: "done", Source: "upload"}
	if _, err := s.FinishJob(ctx, rec, bad); err == nil {
		t.Fatal("FinishJob accepted a malformed fingerprint")
	}
	if got := renderDefects(t, s.Defects()); got != before {
		t.Errorf("a rejected job changed the corpus:\n got %s\nwant %s", got, before)
	}
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].State != "done" {
		t.Errorf("jobs = %+v, want j-000001 done", jobs)
	}
	if last := logLines(t, dir)[len(logLines(t, dir))-1]; strings.Contains(last, `"defects"`) {
		t.Errorf("rejected job journaled a delta: %s", last)
	}
}

// TestSnapshotUpgradeFromParentCorpus: a corpus written before the
// journal carried defect deltas — defect files without stamps, a journal
// of plain job records and a version 2 index.bin (testdata/parent-corpus,
// with the Defects listing it had in parent-defects.golden.json) — opens
// with the same defects, is warm after one rewrite, and folds new
// verdicts on top.
func TestSnapshotUpgradeFromParentCorpus(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parent-corpus")); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/parent-defects.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	listing := func(s *Store) string {
		t.Helper()
		data, err := json.MarshalIndent(s.Defects(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(data) + "\n"
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm, _ := s.OpenInfo(); warm {
		t.Error("a version 2 snapshot served a warm open")
	}
	if got := listing(s); got != string(golden) {
		t.Fatalf("defects of the parent corpus:\n got %s\nwant %s", got, golden)
	}
	if got := len(s.Jobs()); got != 3 {
		t.Errorf("jobs = %d, want 3", got)
	}
	s.Close()

	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if warm, _ := s.OpenInfo(); !warm {
		t.Error("the rewritten snapshot did not serve a warm open")
	}
	if got := listing(s); got != string(golden) {
		t.Fatalf("defects after the snapshot rewrite:\n got %s\nwant %s", got, golden)
	}
	remote := "7e57" + strings.Repeat("0", 60)
	if _, err := s.RecordSummaries(context.Background(), "", []CycleSummary{{Fingerprint: remote}}, "upload", time.Now()); err != nil {
		t.Fatal(err)
	}
	s.jobs.close() // crash: the stamp-less defect file is all a scan finds
	os.Remove(filepath.Join(dir, "index.bin"))
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, ok := s.Defect(remote)
	if !ok || rec.Occurrences != 2 || rec.Class != ClassConfirmed || rec.Method != "steering" {
		t.Errorf("remote defect after a new fold and a crash = %+v, want 2 occurrences, confirmed by steering", rec)
	}
}
