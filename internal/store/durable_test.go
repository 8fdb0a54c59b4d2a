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
	opTornJob             // a job whose terminal append the process dies inside
	opFlip                // one byte of a journal frame goes bad on disk
	numOps
)

type durableOp struct {
	kind    int
	trace   string
	source  string
	running bool // the job also journals a "running" record (coordinator leases)
	sums    []CycleSummary
	// at picks where opTornJob tears its frame, and the frame and byte
	// opFlip corrupts.
	at, frame int
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
		// The low seven bits pick the kind; the top one is the running
		// flag.
		b := next()
		op := durableOp{kind: (b & 0x7f) % numOps, running: b&0x80 != 0}
		switch op.kind {
		case opJob, opSync, opBadRemote, opTornJob:
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
		switch op.kind {
		case opTornJob:
			op.at = next()<<8 | next()
		case opFlip:
			op.frame, op.at = next(), next()<<8|next()
		}
		ops = append(ops, op)
	}
	return ops
}

// durableRun drives one operation sequence against a store and the
// reference, checking Defects, the jobs and their reports after every
// reopen.
type durableRun struct {
	t    testing.TB
	dir  string
	s    *Store
	ref  refCorpus
	jobs int
	now  time.Time
	// want is every job's expected latest state, first-seen order, and
	// reports the report each done job's terminal record carried.
	want    []wantJob
	reports map[string]string
}

type wantJob struct{ id, state string }

// jobReport is the wire report the run journals for a done job: compact
// JSON whose length varies with the job.
func jobReport(id string, n int) string {
	return fmt.Sprintf(`{"tool":"wolf","job":%q,"pad":%q}`, id, strings.Repeat("x", n%97))
}

// setState records a job's new latest state.
func (r *durableRun) setState(id, state string) {
	for i := range r.want {
		if r.want[i].id == id {
			r.want[i].state = state
			return
		}
	}
	r.want = append(r.want, wantJob{id, state})
}

func (r *durableRun) check(when string) {
	r.t.Helper()
	// A nil reference is one a damaged journal just made unknowable (see
	// opFlip).
	if got, want := renderDefects(r.t, r.s.Defects()), r.ref.render(r.t); r.ref != nil && got != want {
		r.t.Fatalf("defects %s differ from the reference fold:\n got %s\nwant %s", when, got, want)
	}
	jobs := r.s.Jobs()
	got := make([]wantJob, len(jobs))
	for i, j := range jobs {
		got[i] = wantJob{j.ID, j.State}
	}
	if !slices.Equal(got, r.want) {
		r.t.Fatalf("jobs %s = %v, want %v", when, got, r.want)
	}
	for _, j := range r.want {
		if j.state != "done" {
			continue
		}
		if rep, err := r.s.JobReport(j.id); err != nil || string(rep) != r.reports[j.id] {
			r.t.Fatalf("report of %s %s = %q (%v), want %q", j.id, when, rep, err, r.reports[j.id])
		}
	}
}

// keepFrames cuts the journal back to its first n intact frames and
// makes what they say the expected jobs, as Open must find them.
func (r *durableRun) keepFrames(frames []journalFrame, n int) {
	r.t.Helper()
	r.want = nil
	for _, fr := range frames[:n] {
		rec, _, ok := decodeHeader([]byte(fr.header))
		if !ok {
			r.t.Fatalf("frame at %d: undecodable header", fr.off)
		}
		if rec.ID != "" {
			r.setState(rec.ID, rec.State)
		}
	}
}

// damage abandons the store as a dying process does, lets edit change
// the journal's bytes, and reopens.
func (r *durableRun) damage(when string, edit func(data []byte) []byte) {
	r.t.Helper()
	r.s.jobs.close()
	path := filepath.Join(r.dir, jobsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		r.t.Fatal(err)
	}
	r.reopen(when)
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
	case opJob, opBadRemote, opTornJob:
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
		r.reports[id] = jobReport(id, r.jobs*31+len(op.sums))
		rec := JobRecord{ID: id, State: "done", Source: op.source, TraceHash: op.trace, Finished: r.now,
			Report: json.RawMessage(r.reports[id])}
		_, err := r.s.FinishJob(ctx, rec, op.sums)
		if (err != nil) != (op.kind == opBadRemote) {
			r.t.Fatalf("op %d: FinishJob err = %v", i, err)
		}
		if op.kind == opTornJob {
			// The process dies inside the terminal append: the frame is
			// cut short, and neither its delta nor its state survives.
			frames := logFrames(r.t, r.dir)
			last := frames[len(frames)-1]
			r.keepFrames(frames, len(frames)-1)
			r.damage(fmt.Sprintf("after a torn append at op %d", i), func(data []byte) []byte {
				return data[:last.off+op.at%last.size]
			})
			return
		}
		r.setState(id, "done")
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
	case opFlip:
		// A byte of one frame goes bad: Open keeps the frames before it.
		frames := logFrames(r.t, r.dir)
		if len(frames) == 0 {
			return
		}
		// The deltas of the dropped frames are lost, but a snapshot may
		// already reflect some of them, so what the reopened store folds
		// is not known in advance: it becomes the reference, and every
		// later reopen must agree with it.
		k := op.frame % len(frames)
		r.keepFrames(frames, k)
		r.ref = nil
		r.damage(fmt.Sprintf("after a flipped byte in frame %d at op %d", k, i), func(data []byte) []byte {
			data[frames[k].off+op.at%frames[k].size] ^= 0x5a
			return data
		})
		r.ref = refCorpus{}
		for _, rec := range r.s.Defects() {
			r.ref[rec.Fingerprint] = rec
		}
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
	r := &durableRun{t: t, dir: dir, s: s, ref: refCorpus{}, now: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		reports: make(map[string]string)}
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
// trace mutations, snapshots and crashes — between operations, halfway
// through a snapshot and inside a job's terminal append — leave Defects
// identical live, after every crash, after a clean reopen, after a cold
// reopen, and to the reference fold. A byte flipped in any journal
// frame drops that frame and every later one; from the reopen after it,
// the defects that reopen found are the reference. Throughout, the jobs
// are exactly those of the intact frames, and every done job's report
// reads back byte for byte.
func FuzzCrashEquivalence(f *testing.F) {
	for _, seed := range durableSeeds {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDurable(t, decodeDurableOps(data))
	})
}

// durableSeeds are FuzzCrashEquivalence's seed corpus, each with the
// operations it was written to run: their kinds, with 0x80 set where
// the running flag is.
var durableSeeds = []struct {
	data []byte
	ops  []int
}{
	{[]byte{opJob, 0, 0, 2, 0x08, 0x11, opCrash}, []int{opJob, opCrash}},
	{[]byte{opJob, 0, 1, 1, 0x00, opTraceWrite, opJob, 1, 0, 2, 0x18, 0x01, opCrash, opSync, 2, 3, 1, 0x28},
		[]int{opJob, opTraceWrite, opJob, opCrash, opSync}},
	{[]byte{opJob, 0, 0, 3, 0x01, 0x02, 0x03, opSync, 1, 1, 2, 0x01, 0x04, opTornSnapshot, opJob, 0, 0, 1, 0x01, opCrash},
		[]int{opJob, opSync, opTornSnapshot, opJob, opCrash}},
	{[]byte{opJob | 0x80, 0, 0, 1, 0x02, opJob | 0x80, 1, 1, 1, 0x02, opSnapshot, opBadRemote, 2, 0, 1, 0x03, 0, opJob | 0x80, 2, 2, 2, 0x12, 0x03, opCrash},
		[]int{opJob | 0x80, opJob | 0x80, opSnapshot, opBadRemote, opJob | 0x80, opCrash}},
	{[]byte{opTraceWrite, opSync, 3, 3, 3, 0x08, 0x08, 0x09, opTornSnapshot, opTraceWrite, opJob, 0, 0, 2, 0x1c, 0x2c, opTornSnapshot},
		[]int{opTraceWrite, opSync, opTornSnapshot, opTraceWrite, opJob, opTornSnapshot}},
	{[]byte{opJob, 0, 0, 2, 0x01, 0x02, opSnapshot | 0x80, opCrash, opJob, 1, 1, 1, 0x02, opSnapshot | 0x80, opTraceWrite, opSync, 2, 0, 1, 0x03, opCrash, opTornSnapshot},
		[]int{opJob, opSnapshot | 0x80, opCrash, opJob, opSnapshot | 0x80, opTraceWrite, opSync, opCrash, opTornSnapshot}},
	{[]byte{opJob, 0, 0, 1, 0x01, opTornJob, 1, 1, 2, 0x01, 0x02, 0, 40, opJob, 2, 1, 1, 0x03, opTornJob, 0, 0, 0, 0, 0},
		[]int{opJob, opTornJob, opJob, opTornJob}},
	{[]byte{opJob, 0, 0, 2, 0x01, 0x12, opSync, 1, 1, 1, 0x02, opJob, 2, 0, 1, 0x03, opFlip, 1, 0, 90, opJob, 0, 1, 1, 0x04, opCrash},
		[]int{opJob, opSync, opJob, opFlip, opJob, opCrash}},
	{[]byte{opJob, 0, 0, 1, 0x01, opSnapshot, opJob, 1, 1, 1, 0x02, opFlip, 2, 0, 3, opTornJob, 2, 2, 1, 0x01, 1, 0},
		[]int{opJob, opSnapshot, opJob, opFlip, opTornJob}},
}

// TestDurableSeedsDecode: every seed of FuzzCrashEquivalence decodes to
// the operations it was written for, running flags included.
func TestDurableSeedsDecode(t *testing.T) {
	for i, seed := range durableSeeds {
		var got []int
		for _, op := range decodeDurableOps(seed.data) {
			k := op.kind
			if op.running {
				k |= 0x80
			}
			got = append(got, k)
		}
		if !slices.Equal(got, seed.ops) {
			t.Errorf("seed %d decodes to %v, want %v", i, got, seed.ops)
		}
	}
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
	frames := len(logFrames(t, dir))
	bad := []CycleSummary{good, {Fingerprint: "../../etc/passwd"}}
	if updated, err := s.RecordSummaries(ctx, fakeHash(3), bad, "upload", time.Now()); err == nil || len(updated) != 0 {
		t.Fatalf("malformed fingerprint accepted: updated=%v err=%v", updated, err)
	}
	if got := renderDefects(t, s.Defects()); got != before {
		t.Errorf("a rejected call changed the corpus:\n got %s\nwant %s", got, before)
	}
	if got := len(logFrames(t, dir)); got != frames {
		t.Errorf("a rejected job-less call journaled %d records", got-frames)
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
	if last := logFrames(t, dir)[len(logFrames(t, dir))-1]; last.delta != "" {
		t.Errorf("rejected job journaled a delta: %s", last.delta)
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
