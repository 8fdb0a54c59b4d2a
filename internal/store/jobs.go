package store

// The job journal, jobs.v3: one length-prefixed, checksummed frame per
// record, appended and fsynced. All fixed-width integers are big-endian:
//
//	header length  uint32
//	delta length   uint32
//	report length  uint32
//	header         binary: the JobRecord without Report and Defects, plus
//	               the Seq of the delta the frame carries (appendHeader)
//	delta          JSON DefectDelta, empty when the frame carries none
//	report         a done job's wire report, empty otherwise
//	CRC-32C        uint32 over every byte of the frame before it
//
// The header is a fixed sequence of fields: the strings ID, State,
// Source, Trace, TraceHash, Error and Node, each a uvarint length and
// its bytes; the times Created, Started and Finished, each the varint
// of its Unix seconds and the uvarint of its nanoseconds; then the
// varints Attempts, Tuples and Seq. A time decodes in UTC, the zero
// time to the zero time. A header with bytes left over, or too few, is
// undecodable.
//
// Open reads the file once, checks each frame's lengths and checksum and
// decodes its header; a delta's JSON is decoded only when its Seq lies
// past what the loaded defect state reflects, and a report is never
// decoded at all: the journal keeps where the latest frame of each job
// lies, and JobReport reads the report at its offset. The first frame
// that runs past the end of the file, fails its checksum or has an
// undecodable header ends the journal: it and everything after it are
// truncated away. The checksum covers the report, so a flipped bit
// anywhere in a frame is caught.
//
// The format is versioned by file name: a change to the layout takes a
// new name, and Open converts the journal of an earlier format it finds
// (legacyJournals). Before this layout came jobs.bin, the same frames
// with a JSON header, and before that jobs.jsonl, JSON lines. Open
// converts the newest one present into a complete jobs.v3 written with
// atomicWrite, then removes every earlier file. jobs.v3 only ever
// appears whole and nothing appends in an earlier format, so when a
// crash leaves jobs.v3 beside an earlier file, jobs.v3 is the journal
// and the earlier file is removed.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Journal file names: the journal, and its earlier formats, newest
// first.
const (
	jobsFile           = "jobs.v3"
	jsonHeaderJobsFile = "jobs.bin"
	legacyJobsFile     = "jobs.jsonl"
)

// legacyJournals are the journal's earlier formats, newest first, each
// with the function that converts the intact records of such a file
// into frames of the current format.
var legacyJournals = []struct {
	name    string
	convert func(data []byte) ([]byte, error)
}{
	{jsonHeaderJobsFile, convertJSONHeaderFrames},
	{legacyJobsFile, convertJSONLines},
}

// JobRecord is one persisted snapshot of a wolfd job. The server appends
// a record at admission and again at completion; the latest record per
// ID wins on replay, so a job that never reached a terminal state is
// visibly stuck in "queued" after a restart (and the server fails it on
// rehydration).
type JobRecord struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Source string `json:"source"`
	// Trace is the W3C trace ID of the request that created the job, so
	// causal correlation survives restarts along with the job itself.
	Trace     string    `json:"trace,omitempty"`
	TraceHash string    `json:"trace_hash,omitempty"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created,omitzero"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Fleet fields (wolfd -role=coordinator): the analyzer node the job
	// was last leased to and how many times the job has been delivered.
	// Attempts survives restarts so the bounded redelivery budget cannot
	// be reset by bouncing the coordinator. (Records from older journals
	// may also carry lease_expiry; replay ignores it.)
	Node     string `json:"node,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Tuples is the length of the job's trace in lock acquisitions, once
	// the trace exists (0 in records from older journals).
	Tuples int `json:"tuples,omitempty"`
	// Report is the wire-format analysis report (report.JSONReport) of a
	// done job, kept verbatim so it can be served after a restart. The
	// journal stores it; Jobs never returns it (read it with JobReport).
	Report json.RawMessage `json:"report,omitempty"`
	// Defects is what the job folded into the defect corpus, carried by
	// its terminal record (FinishJob): this append is what makes the
	// verdict's defects durable. Only the store writes it; AppendJob
	// drops it and Jobs never returns it.
	Defects *DefectDelta `json:"defects,omitempty"`
}

// DefectDelta is one analysis's contribution to the defect corpus as
// the journal carries it. The record holding it supplies the rest of
// the fold: the trace (TraceHash), the workload (from Source) and the
// fold time (Finished). Folding the deltas in Seq order over an empty
// corpus rebuilds every defect record.
type DefectDelta struct {
	// Seq numbers the deltas in fold order. The index snapshot and every
	// defect file record the last Seq they reflect, and Open folds only
	// the deltas past it.
	Seq int64 `json:"seq"`
	// Cycles holds one summary per fingerprint the analysis touched.
	// Signature and Edges are set only on fingerprints new to the corpus.
	Cycles []CycleSummary `json:"cycles"`

	// The fold's trace, workload and time, from the carrying record.
	trace, workload string
	at              time.Time
}

// bind takes the delta's fold context from the record carrying it.
func (d *DefectDelta) bind(rec *JobRecord) *DefectDelta {
	d.trace, d.workload, d.at = rec.TraceHash, workloadFromSource(rec.Source), rec.Finished
	return d
}

// framePrefix is the three section lengths; frameTrailer the checksum.
const (
	framePrefix  = 12
	frameTrailer = 4
)

// span locates a job's latest frame in the journal file, and the report
// inside it.
type span struct {
	off, size int64 // the frame
	rep, repN int64 // the report: file offset and length
}

// appendHeader appends the binary header of rec, carrying the delta
// numbered seq (0 for none), to buf. A record without a job ID carries
// a job-less delta (the synchronous analysis path).
func appendHeader(buf []byte, rec *JobRecord, seq int64) []byte {
	for _, s := range [...]string{rec.ID, rec.State, rec.Source, rec.Trace, rec.TraceHash, rec.Error, rec.Node} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, t := range [...]time.Time{rec.Created, rec.Started, rec.Finished} {
		buf = binary.AppendVarint(buf, t.Unix())
		buf = binary.AppendUvarint(buf, uint64(t.Nanosecond()))
	}
	buf = binary.AppendVarint(buf, int64(rec.Attempts))
	buf = binary.AppendVarint(buf, int64(rec.Tuples))
	return binary.AppendVarint(buf, seq)
}

// decodeHeader decodes a header appendHeader wrote: the record, without
// Report and Defects, and the Seq of the delta its frame carries. Its
// strings share one allocation.
func decodeHeader(data []byte) (rec JobRecord, seq int64, ok bool) {
	d := headerDecoder{data: data, s: string(data)}
	for _, f := range [...]*string{&rec.ID, &rec.State, &rec.Source, &rec.Trace, &rec.TraceHash, &rec.Error, &rec.Node} {
		*f = d.str()
	}
	for _, f := range [...]*time.Time{&rec.Created, &rec.Started, &rec.Finished} {
		*f = d.time()
	}
	rec.Attempts, rec.Tuples, seq = int(d.varint()), int(d.varint()), d.varint()
	return rec, seq, !d.bad && d.off == len(data)
}

// headerDecoder reads a header's fields in order; a field that runs
// past the end sets bad.
type headerDecoder struct {
	data []byte
	s    string // data as one string, which the decoded strings slice
	off  int
	bad  bool
}

func (d *headerDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.bad, d.off = true, len(d.data)
		return 0
	}
	d.off += n
	return v
}

func (d *headerDecoder) varint() int64 {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.bad, d.off = true, len(d.data)
		return 0
	}
	d.off += n
	return v
}

func (d *headerDecoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.data)-d.off) {
		d.bad, d.off = true, len(d.data)
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// time decodes Unix seconds and nanoseconds in UTC; the zero time's
// encoding decodes to the zero time itself.
func (d *headerDecoder) time() time.Time {
	sec, nsec := d.varint(), d.uvarint()
	if nsec >= 1e9 {
		d.bad = true
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// encodeFrame frames rec and reports where the report lies relative to
// the frame's start. The report is framed verbatim, so JobReport reads
// back exactly the bytes appended.
func encodeFrame(rec JobRecord) ([]byte, span, error) {
	var delta []byte
	var seq int64
	if rec.Defects != nil {
		seq = rec.Defects.Seq
		var err error
		if delta, err = json.Marshal(rec.Defects); err != nil {
			return nil, span{}, err
		}
	}
	strs := len(rec.ID) + len(rec.State) + len(rec.Source) + len(rec.Trace) + len(rec.TraceHash) + len(rec.Error) + len(rec.Node)
	buf := make([]byte, framePrefix, framePrefix+strs+64+len(delta)+len(rec.Report)+frameTrailer)
	return finishFrame(appendHeader(buf, &rec, seq), delta, rec.Report)
}

// finishFrame completes a frame whose buffer holds the prefix's space
// and the header: it fills in the lengths and appends the delta, the
// report and the checksum.
func finishFrame(buf, delta, report []byte) ([]byte, span, error) {
	header := len(buf) - framePrefix
	if max(header, len(delta), len(report)) > math.MaxUint32 {
		return nil, span{}, fmt.Errorf("journal record too large to frame")
	}
	binary.BigEndian.PutUint32(buf[0:], uint32(header))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(delta)))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(report)))
	buf = append(buf, delta...)
	buf = append(buf, report...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	rep := int64(framePrefix + header + len(delta))
	return buf, span{size: int64(len(buf)), rep: rep, repN: int64(len(report))}, nil
}

// frame is one intact frame's sections, sliced from the journal bytes.
type frame struct {
	header, delta []byte
	span          span // relative to the frame's start
}

// nextFrame checks the frame at the start of data: its lengths fit in
// data and its checksum matches.
func nextFrame(data []byte) (frame, bool) {
	if len(data) < framePrefix+frameTrailer {
		return frame{}, false
	}
	h := uint64(binary.BigEndian.Uint32(data[0:]))
	d := uint64(binary.BigEndian.Uint32(data[4:]))
	r := uint64(binary.BigEndian.Uint32(data[8:]))
	end := framePrefix + h + d + r
	if end+frameTrailer > uint64(len(data)) {
		return frame{}, false
	}
	if crc32.Checksum(data[:end], crcTable) != binary.BigEndian.Uint32(data[end:]) {
		return frame{}, false
	}
	return frame{
		header: data[framePrefix : framePrefix+h],
		delta:  data[framePrefix+h : framePrefix+h+d],
		span:   span{size: int64(end + frameTrailer), rep: int64(framePrefix + h + d), repN: int64(r)},
	}, true
}

// jobLog is the append-only framed job journal. Caller (Store)
// serializes access.
type jobLog struct {
	path string
	// f appends frames and reads reports at their offsets.
	f      *os.File
	syncs  *fsyncs
	latest map[string]int // job ID → index in order
	order  []JobRecord    // latest record per job without its report, first-seen order
	spans  []span         // where each order entry's frame lies
	// size is the journal's byte length as of the last read or append.
	size int64
	// replayed counts the frames read at open — the journal's on-disk
	// length in records, as opposed to len(order) live jobs.
	replayed int
	// compacted marks that this open rewrote the journal: a compaction
	// or the conversion of an earlier format (tests/stats).
	compacted bool
	// deltas are the defect deltas read at open past the decode floor,
	// in journal order, until Open has folded them; data is the file as
	// read at open, until Open is done with it (compact copies from it).
	deltas []*DefectDelta
	data   []byte
}

// readJobLog replays the journal in dir, converting one of an earlier
// format first. Only deltas with a Seq above floor are decoded; the
// loaded defect state reflects the rest. A torn or corrupt frame and
// everything after it are dropped and truncated away, so the next
// append starts on a frame boundary. A record with no job ID carries a
// job-less delta; it is counted but joins no job.
func readJobLog(dir string, syncs *fsyncs, floor int64) (*jobLog, error) {
	jl := &jobLog{path: filepath.Join(dir, jobsFile), syncs: syncs, latest: make(map[string]int)}
	converted, err := convertLegacyJobs(dir, syncs)
	if err != nil {
		return nil, err
	}
	jl.compacted = converted
	data, err := os.ReadFile(jl.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	jl.data = data
	off := int64(0)
	for off < int64(len(data)) {
		fr, ok := nextFrame(data[off:])
		if !ok {
			break
		}
		rec, seq, ok := decodeHeader(fr.header)
		if !ok || (rec.ID == "" && len(fr.delta) == 0) {
			break
		}
		if len(fr.delta) > 0 && seq > floor {
			d := new(DefectDelta)
			if err := json.Unmarshal(fr.delta, d); err != nil {
				break
			}
			jl.deltas = append(jl.deltas, d.bind(&rec))
		}
		if rec.ID != "" {
			sp := fr.span
			sp.off, sp.rep = off, off+sp.rep
			jl.upsert(rec, sp)
		}
		jl.replayed++
		off += fr.span.size
	}
	if off < int64(len(data)) {
		// Repair: truncate the torn tail so future appends are clean.
		if err := os.Truncate(jl.path, off); err != nil {
			return nil, fmt.Errorf("store: repair job log: %w", err)
		}
	}
	jl.size = off
	return jl, nil
}

// convertLegacyJobs converts the newest earlier-format journal in dir
// into the journal, unless the journal exists already, and removes
// every earlier-format file; it reports whether it converted one.
func convertLegacyJobs(dir string, syncs *fsyncs) (bool, error) {
	path := filepath.Join(dir, jobsFile)
	_, err := os.Stat(path)
	have, converted := err == nil, false
	for _, lj := range legacyJournals {
		legacy := filepath.Join(dir, lj.name)
		data, err := os.ReadFile(legacy)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return false, fmt.Errorf("store: %w", err)
		}
		if !have {
			frames, err := lj.convert(data)
			if err == nil {
				err = syncs.atomicWrite(path, frames)
			}
			if err != nil {
				return false, fmt.Errorf("store: convert job log %s: %w", lj.name, err)
			}
			have, converted = true, true
		}
		// Converted, or a crash between a conversion's rename and this
		// removal left it: a failed removal is retried by the next Open.
		os.Remove(legacy)
	}
	return converted, nil
}

// jsonHeader is the header of a jobs.bin frame: JSON.
type jsonHeader struct {
	JobRecord
	Seq int64 `json:"seq,omitempty"`
}

// convertJSONHeaderFrames re-frames a jobs.bin journal up to its first
// torn, corrupt or undecodable frame: the same sections, with the JSON
// header re-encoded in binary.
func convertJSONHeaderFrames(data []byte) ([]byte, error) {
	var out []byte
	for len(data) > 0 {
		fr, ok := nextFrame(data)
		if !ok {
			break
		}
		var h jsonHeader
		if err := json.Unmarshal(fr.header, &h); err != nil || (h.ID == "" && len(fr.delta) == 0) {
			break
		}
		report := data[fr.span.rep : fr.span.rep+fr.span.repN]
		buf, _, err := finishFrame(appendHeader(make([]byte, framePrefix), &h.JobRecord, h.Seq), fr.delta, report)
		if err != nil {
			return nil, err
		}
		out = append(out, buf...)
		data = data[fr.span.size:]
	}
	return out, nil
}

// convertJSONLines frames a JSON-lines journal up to its first torn or
// corrupt line: a final line without its newline is torn (the append
// wrote record and newline together), and so is one that fails to
// parse or holds neither a job ID nor a delta. Lines have no length
// cap.
func convertJSONLines(data []byte) ([]byte, error) {
	var out []byte
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return out, nil
		}
		var rec JobRecord
		if err := json.Unmarshal(data[:i], &rec); err != nil || (rec.ID == "" && rec.Defects == nil) {
			return out, nil
		}
		buf, _, err := encodeFrame(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, buf...)
		data = data[i+1:]
	}
}

// needsCompaction reports whether the replayed history exceeds twice
// the live job count. Every job writes at least an admission and a
// terminal record, so 2× is the steady-state floor.
func (jl *jobLog) needsCompaction() bool { return jl.replayed > 2*len(jl.order) }

// compact atomically rewrites the journal (same-directory temp file,
// fsync, rename) with the latest frame of each live job, copied
// verbatim, in first-seen order. Superseded and job-less frames are
// dropped, deltas included, so the caller must first have made every
// delta durable elsewhere (a snapshot). A crash anywhere during
// compaction leaves either the intact original or the complete
// replacement, never a mix; an orphaned temp file is swept by the next
// Open. Runs only within Open, on the bytes readJobLog read, and before
// openAppend (the handle would go stale across the rename).
func (jl *jobLog) compact() error {
	var buf bytes.Buffer
	spans := make([]span, len(jl.spans))
	for i, sp := range jl.spans {
		moved := int64(buf.Len()) - sp.off
		buf.Write(jl.data[sp.off : sp.off+sp.size])
		spans[i] = span{off: sp.off + moved, size: sp.size, rep: sp.rep + moved, repN: sp.repN}
	}
	if err := jl.syncs.atomicWrite(jl.path, buf.Bytes()); err != nil {
		return fmt.Errorf("store: compact job log: %w", err)
	}
	jl.spans = spans
	jl.replayed = len(jl.order)
	jl.size = int64(buf.Len())
	jl.compacted = true
	return nil
}

// openAppend opens the handle that appends frames and reads reports.
func (jl *jobLog) openAppend() error {
	f, err := os.OpenFile(jl.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	jl.f = f
	return nil
}

// upsert merges one record, without its report and delta, into the
// latest-per-ID view.
func (jl *jobLog) upsert(rec JobRecord, sp span) {
	rec.Report, rec.Defects = nil, nil
	if i, ok := jl.latest[rec.ID]; ok {
		jl.order[i], jl.spans[i] = rec, sp
		return
	}
	jl.latest[rec.ID] = len(jl.order)
	jl.order = append(jl.order, rec)
	jl.spans = append(jl.spans, sp)
}

// append durably writes one record's frame (fsynced) and merges the
// record in memory.
func (jl *jobLog) append(rec JobRecord) error {
	if jl.f == nil {
		return fmt.Errorf("store: job log closed")
	}
	data, sp, err := encodeFrame(rec)
	if err != nil {
		return fmt.Errorf("store: encode job: %w", err)
	}
	if _, err := jl.f.Write(data); err != nil {
		return fmt.Errorf("store: append job: %w", err)
	}
	sp.off, sp.rep = jl.size, jl.size+sp.rep
	jl.size += int64(len(data))
	if err := jl.syncs.file(jl.f); err != nil {
		return fmt.Errorf("store: sync job log: %w", err)
	}
	if rec.ID != "" {
		jl.upsert(rec, sp)
	}
	return nil
}

// reportAt returns the file and the span of the report the latest
// record of job id carries; ok is false when there is none.
func (jl *jobLog) reportAt(id string) (f *os.File, sp span, ok bool) {
	i, found := jl.latest[id]
	if !found || jl.spans[i].repN == 0 || jl.f == nil {
		return nil, span{}, false
	}
	return jl.f, jl.spans[i], true
}

// snapshot copies the latest record of every job, first-seen order.
func (jl *jobLog) snapshot() []JobRecord {
	return append([]JobRecord(nil), jl.order...)
}

func (jl *jobLog) len() int { return len(jl.order) }

func (jl *jobLog) close() error {
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}
