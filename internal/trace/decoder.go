package trace

// The WTRC decoder: the only code that parses the binary trace format.
// Every way a trace enters the system goes through it — batch uploads
// and the wolf -trace flag (Decode), stream chunks (Write per chunk),
// corpus reads and both ends of the fleet wire (ReadBinary) — so every
// door sees one parser, one error taxonomy and one validation pass.
//
// The decoder is an explicit state machine rather than a reader loop:
// streams outlive requests, get evicted on idle timeouts, and number in
// the hundreds per process, so their suspended state must be plain data
// — a byte buffer and a section cursor — not a parked stack. Batch
// decoding is the degenerate stream: the reader's bytes fed through
// Write in bounded chunks, then Finalize.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"wolf/internal/vclock"
	"wolf/sim"
)

// ErrBudget is the sentinel wrapped by every decoder memory budget
// rejection (errors.Is(err, ErrBudget)). wolfd maps it to HTTP 413.
var ErrBudget = errors.New("trace: decoder memory budget exceeded")

// readChunk bounds how many bytes ReadBinary and Decode hand the
// decoder per Write.
const readChunk = 4 << 10

// section is the decoder's position in the WTRC layout. Sections are
// strictly ordered; the cursor only moves forward.
type section int

const (
	secMagic section = iota
	secVersion
	secSeed
	secSteps
	secTauCount
	secTaus
	secClockCount
	secClockVecLen
	secClockPair
	secStringCount
	secStrings
	secTupleCount
	secTupleHead
	secTupleHeld
	secDone
)

// Field kind codes for the tuple and held-lock schemas. The schema
// strings below mirror WriteBinary's field order byte for byte; the
// decoder is table-driven so the resume point inside a tuple is just
// an index into the schema.
const (
	kStr = 's' // string-table index: uvarint, bounds-checked
	kInt = 'i' // uvarint that must fit a non-negative int32
	kVar = 'v' // signed varint
)

// tupleSchema: thread, lock, site, threadID, idx.thread, idx.seq,
// key.thread, key.site, key.occ, tau, pos, held-count.
const tupleSchema = "sssvsissivii"

// heldSchema: lock, site, idx.thread, idx.seq, key.thread, key.site,
// key.occ.
const heldSchema = "sssissi"

// Retained-memory cost estimates (bytes) for budget accounting. These
// deliberately overestimate: the budget is a denial-of-service bound,
// not an accounting ledger, and rounding up keeps the bound honest.
const (
	tupleCost  = 208 // Tuple struct + pointer + per-thread index slot
	heldCost   = 96  // HeldLock struct
	stringCost = 48  // string header + table slot
	tauCost    = 8
	pairCost   = 16 // vclock.SJ + amortized slice header
)

// Decoder incrementally parses a WTRC binary trace fed in arbitrary
// byte chunks. Zero value is not usable; call NewDecoder.
//
// Feeding the same bytes through Write in any chunking either yields
// (via Finalize) the same trace, or rejects with an error of the same
// family: ErrCorrupt for structural damage (including per-thread
// positions that are not dense), ErrInvalid (a *ValidationError with
// its corruption class) for well-formed bytes describing an impossible
// execution, ErrBudget when the memory budget is blown. Validation runs
// incrementally: a bad tuple is rejected the moment it decodes, not
// after the upload completes, and a trace Finalize returns needs no
// further Validate.
type Decoder struct {
	budget int
	// retained is the estimated bytes held in decoded structures;
	// mem/peak additionally count the unconsumed buffer.
	retained int
	peak     int
	bytesIn  int64
	err      error

	// buf holds the bytes being parsed: the caller's chunk itself when
	// nothing was pending, else own with the chunk appended. Between
	// Writes only the partial item at the split point survives, in own.
	buf []byte
	own []byte
	off int

	sec section
	// tr is the trace under construction; its seed, steps, taus and
	// clocks fill in as their sections decode, its tuples as they
	// validate.
	tr *Trace

	nTaus int

	nClocks  int
	vecLen   int
	curVec   vclock.Vector
	pairS    int64
	pairHasS bool

	nStrings int
	table    []string
	strLen   int // pending string byte length; -1 = length not read yet

	nTuples int
	drained int

	head    [len(tupleSchema)]int64
	headIdx int
	held    []HeldLock
	heldRec [len(heldSchema)]int64
	heldIdx int
	nHeld   int

	validator *tupleValidator
}

// NewDecoder returns a decoder that rejects with ErrBudget once its
// retained memory exceeds budget bytes; budget <= 0 sets no limit
// beyond whatever bounds the input.
func NewDecoder(budget int) *Decoder {
	return &Decoder{
		budget: budget,
		strLen: -1,
		tr:     &Trace{byThread: make(map[string][]*Tuple)},
	}
}

// Write feeds the next chunk. Split points are arbitrary — a varint,
// a string, even the magic may straddle chunks. The first error is
// sticky: it is returned now and by every later call. The decoder does
// not retain p.
func (d *Decoder) Write(p []byte) error {
	if d.err != nil {
		return d.err
	}
	d.bytesIn += int64(len(p))
	if d.sec == secDone {
		// Trailing bytes after the last tuple are ignored.
		return nil
	}
	if len(d.buf) == 0 {
		d.buf = p
	} else {
		d.buf = append(d.buf, p...)
	}
	d.note(d.retained + len(d.buf) - d.off)
	for d.err == nil && d.step() {
	}
	if d.sec == secDone {
		d.buf, d.own = nil, nil
	} else {
		// Keep only the partial item at the split point, in memory the
		// decoder owns: p belongs to the caller.
		d.buf = append(d.own[:0], d.buf[d.off:]...)
		d.own = d.buf
	}
	d.off = 0
	mem := d.retained + len(d.buf)
	d.note(mem)
	if d.err == nil && d.budget > 0 && mem > d.budget {
		d.fail(fmt.Errorf("trace: decoder retains %d bytes, budget %d: %w", mem, d.budget, ErrBudget))
	}
	return d.err
}

// note tracks peak memory.
func (d *Decoder) note(mem int) {
	if mem > d.peak {
		d.peak = mem
	}
}

// fail records the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// step advances the state machine by one wire item. It returns false
// when more bytes are needed (or on error); state transitions that
// consume nothing return true so the loop keeps draining.
func (d *Decoder) step() bool {
	switch d.sec {
	case secMagic:
		if len(d.buf)-d.off < len(binaryMagic) {
			return false
		}
		var m [4]byte
		copy(m[:], d.buf[d.off:])
		if m != binaryMagic {
			d.fail(corruptf("bad magic %q", m[:]))
			return false
		}
		d.off += len(m)
		d.sec = secVersion

	case secVersion:
		v, ok := d.uvarint()
		if !ok {
			return false
		}
		if v != binaryVersion {
			d.fail(corruptf("unsupported binary version %d (want %d)", v, binaryVersion))
			return false
		}
		d.sec = secSeed

	case secSeed:
		v, ok := d.varint()
		if !ok {
			return false
		}
		d.tr.Seed = v
		d.sec = secSteps

	case secSteps:
		v, ok := d.intval()
		if !ok {
			return false
		}
		d.tr.Steps = v
		d.sec = secTauCount

	case secTauCount:
		n, ok := d.intval()
		if !ok {
			return false
		}
		d.nTaus = n
		if n > 0 {
			d.tr.Taus = make([]int, 0, capAlloc(n))
		}
		d.sec = secTaus

	case secTaus:
		if len(d.tr.Taus) == d.nTaus {
			d.sec = secClockCount
			return true
		}
		v, ok := d.varint()
		if !ok {
			return false
		}
		d.tr.Taus = append(d.tr.Taus, int(v))
		d.retained += tauCost

	case secClockCount:
		n, ok := d.intval()
		if !ok {
			return false
		}
		d.nClocks = n
		d.sec = secClockVecLen

	case secClockVecLen:
		if len(d.tr.Clocks) == d.nClocks {
			d.endHeader()
			return true
		}
		n, ok := d.intval()
		if !ok {
			return false
		}
		d.vecLen = n
		d.curVec = make(vclock.Vector, 0, capAlloc(n))
		d.sec = secClockPair

	case secClockPair:
		if len(d.curVec) == d.vecLen {
			d.tr.Clocks = append(d.tr.Clocks, d.curVec)
			d.curVec = nil
			d.sec = secClockVecLen
			return true
		}
		v, ok := d.varint()
		if !ok {
			return false
		}
		if !d.pairHasS {
			d.pairS, d.pairHasS = v, true
			return true
		}
		d.curVec = append(d.curVec, vclock.SJ{S: int(d.pairS), J: int(v)})
		d.pairHasS = false
		d.retained += pairCost

	case secStringCount:
		n, ok := d.intval()
		if !ok {
			return false
		}
		d.nStrings = n
		d.table = make([]string, 0, capAlloc(n))
		d.sec = secStrings

	case secStrings:
		if len(d.table) == d.nStrings {
			d.sec = secTupleCount
			return true
		}
		if d.strLen < 0 {
			n, ok := d.intval()
			if !ok {
				return false
			}
			if n > maxStringLen {
				d.fail(corruptf("binary decode: string length %d exceeds limit", n))
				return false
			}
			d.strLen = n
			return true
		}
		if len(d.buf)-d.off < d.strLen {
			return false
		}
		s := string(d.buf[d.off : d.off+d.strLen])
		d.off += d.strLen
		d.table = append(d.table, s)
		d.retained += len(s) + stringCost
		d.strLen = -1

	case secTupleCount:
		n, ok := d.intval()
		if !ok {
			return false
		}
		d.nTuples = n
		d.sec = secTupleHead

	case secTupleHead:
		if len(d.tr.Tuples) == d.nTuples {
			d.sec = secDone
			return true
		}
		// Fields decode in a tight loop; headIdx is the resume point
		// when the chunk ends mid-tuple.
		for d.headIdx < len(tupleSchema) {
			v, ok := d.field(tupleSchema[d.headIdx])
			if !ok {
				return false
			}
			d.head[d.headIdx] = v
			d.headIdx++
		}
		d.nHeld = int(d.head[len(tupleSchema)-1])
		if d.nHeld > 0 {
			d.held = make([]HeldLock, 0, capAlloc(d.nHeld))
		} else {
			d.held = nil
		}
		d.sec = secTupleHeld

	case secTupleHeld:
		if len(d.held) == d.nHeld {
			d.finishTuple()
			return d.err == nil
		}
		for d.heldIdx < len(heldSchema) {
			v, ok := d.field(heldSchema[d.heldIdx])
			if !ok {
				return false
			}
			d.heldRec[d.heldIdx] = v
			d.heldIdx++
		}
		r := d.heldRec
		d.held = append(d.held, HeldLock{
			Lock: d.table[r[0]],
			Site: d.table[r[1]],
			Idx:  sim.Index{Thread: d.table[r[2]], Seq: int(r[3])},
			Key:  Key{Thread: d.table[r[4]], Site: d.table[r[5]], Occ: int(r[6])},
		})
		d.retained += heldCost
		d.heldIdx = 0

	case secDone:
		d.off = len(d.buf)
		return false
	}
	return d.err == nil
}

// endHeader runs once the taus and clocks sections are complete: the
// trace-level shape checks fire here, before the first tuple, and the
// incremental per-tuple validator is armed.
func (d *Decoder) endHeader() {
	if err := validateClocks(d.tr.Clocks, d.tr.Taus); err != nil {
		d.fail(err)
		return
	}
	d.validator = newTupleValidator(d.tr.Clocks, d.tr.Taus)
	d.sec = secStringCount
}

// finishTuple materializes the decoded tuple, checks its position
// against its thread's (wire structure: ErrCorrupt) and then validates
// it in stream order, making it visible to Events.
func (d *Decoder) finishTuple() {
	h := d.head
	tp := &Tuple{
		Thread:   d.table[h[0]],
		Lock:     d.table[h[1]],
		Site:     d.table[h[2]],
		ThreadID: sim.ThreadID(h[3]),
		Idx:      sim.Index{Thread: d.table[h[4]], Seq: int(h[5])},
		Key:      Key{Thread: d.table[h[6]], Site: d.table[h[7]], Occ: int(h[8])},
		Tau:      int(h[9]),
		Pos:      int(h[10]),
		Held:     d.held,
	}
	d.held = nil
	d.headIdx = 0
	if err := d.tr.indexThread(tp); err != nil {
		d.fail(err)
		return
	}
	if err := d.validator.Check(tp); err != nil {
		d.fail(err)
		return
	}
	d.tr.Tuples = append(d.tr.Tuples, tp)
	d.retained += tupleCost + len(tp.Held)*heldCost
	d.sec = secTupleHead
}

// uvarint reads one unsigned varint, or reports that the buffer ends
// mid-value. Overflow (>64 bits) is corruption, detected even when the
// garbage spans chunk boundaries.
func (d *Decoder) uvarint() (uint64, bool) {
	// Most fields (table indices, counts, small ints) fit one byte.
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		d.off++
		return uint64(d.buf[d.off-1]), true
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n > 0 {
		d.off += n
		return v, true
	}
	if n < 0 {
		d.fail(corruptf("binary decode: varint overflows 64 bits"))
	}
	return 0, false
}

// varint reads one signed varint.
func (d *Decoder) varint() (int64, bool) {
	v, n := binary.Varint(d.buf[d.off:])
	if n > 0 {
		d.off += n
		return v, true
	}
	if n < 0 {
		d.fail(corruptf("binary decode: varint overflows 64 bits"))
	}
	return 0, false
}

// intval reads a uvarint that must fit a non-negative int32.
func (d *Decoder) intval() (int, bool) {
	v, ok := d.uvarint()
	if !ok {
		return 0, false
	}
	if v > math.MaxInt32 {
		d.fail(corruptf("binary decode: value %d out of range", v))
		return 0, false
	}
	return int(v), true
}

// field reads one schema-typed tuple field. String-table indices are
// bounds-checked at read time.
func (d *Decoder) field(kind byte) (int64, bool) {
	switch kind {
	case kStr:
		i, ok := d.uvarint()
		if !ok {
			return 0, false
		}
		if i >= uint64(len(d.table)) {
			d.fail(corruptf("binary decode: string index %d out of range (table size %d)", i, len(d.table)))
			return 0, false
		}
		return int64(i), true
	case kInt:
		v, ok := d.intval()
		return int64(v), ok
	default: // kVar
		return d.varint()
	}
}

// HeaderDone reports whether the taus and clocks sections have fully
// decoded, at which point Clocks is final.
func (d *Decoder) HeaderDone() bool { return d.sec >= secStringCount }

// Clocks returns the decoded vector-clock table (final once
// HeaderDone). The caller must not mutate it.
func (d *Decoder) Clocks() []vclock.Vector { return d.tr.Clocks }

// Events returns the tuples completed since the previous call, in
// trace order. Each tuple is returned exactly once; the stream engine
// drains this after every chunk.
func (d *Decoder) Events() []*Tuple {
	n := len(d.tr.Tuples)
	out := d.tr.Tuples[d.drained:n:n]
	d.drained = n
	return out
}

// BytesIn returns the total bytes fed through Write.
func (d *Decoder) BytesIn() int64 { return d.bytesIn }

// Mem returns the current estimated retained memory in bytes.
func (d *Decoder) Mem() int { return d.retained + len(d.buf) - d.off }

// Peak returns the high-water mark of Mem over the stream's life; a
// well-formed stream never exceeds the budget plus one chunk.
func (d *Decoder) Peak() int { return d.peak }

// Done reports whether the full declared trace has decoded; trailing
// bytes after that are ignored.
func (d *Decoder) Done() bool { return d.sec == secDone }

// Finalize returns the completed, validated trace for handoff to the
// analysis pipeline. Input that ends mid-section is truncated:
// ErrCorrupt.
func (d *Decoder) Finalize() (*Trace, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.sec != secDone {
		d.fail(corruptf("binary decode: stream truncated in section %d after %d bytes", int(d.sec), d.bytesIn))
		return nil, d.err
	}
	return d.tr, nil
}

// decodeBinary feeds r to a budget-free decoder in bounded chunks
// until the declared trace is complete or r ends, then finalizes.
// Errors from r other than io.EOF are I/O failures, not corruption:
// they are returned wrapped (%w), never as ErrCorrupt.
func decodeBinary(r io.Reader) (*Trace, error) {
	d := NewDecoder(0)
	buf := make([]byte, readChunk)
	for !d.Done() {
		n, err := r.Read(buf)
		if werr := d.Write(buf[:n]); werr != nil {
			return nil, werr
		}
		if err == io.EOF {
			break
		}
		if err != nil && !d.Done() {
			return nil, fmt.Errorf("trace: read: %w", err)
		}
	}
	return d.Finalize()
}
