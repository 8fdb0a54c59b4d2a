package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrCorrupt is the sentinel wrapped by every structural decode
// failure — truncated streams, oversized length prefixes, out-of-range
// indices, bad magic, per-thread positions that are not dense — so
// callers can distinguish adversarial or damaged input
// (errors.Is(err, ErrCorrupt)) from I/O problems and reject it at the
// door. Errors from the underlying reader are never wrapped in it.
var ErrCorrupt = errors.New("corrupt binary trace")

// corruptf builds an ErrCorrupt-wrapping decode error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("trace: "+format+": %w", append(args, ErrCorrupt)...)
}

// Binary trace format ("WTRC"): the ingest hot path of the wolfd
// service. The layout is length-prefixed and versioned so readers can
// reject foreign or future data without scanning it:
//
//	magic   4 bytes "WTRC"
//	version uvarint (binaryVersion)
//	seed    varint
//	steps   uvarint
//	taus    uvarint count, then varint each
//	clocks  uvarint count, then per vector: uvarint len + (varint S, varint J) pairs
//	strings uvarint count, then per string: uvarint len + raw bytes
//	tuples  uvarint count, then per tuple (all strings as table indices):
//	        thread, lock, site, threadID(varint), idx(thread,seq),
//	        key(thread,site,occ), tau(varint), pos,
//	        held count + per held: lock, site, idx(thread,seq), key(thread,site,occ)
//
// Every string is interned once in the table; tuples reference it by
// index, which is what makes the format both smaller and faster to
// decode than JSON (no field names, no quoting, no reflection).

// binaryMagic marks a binary trace stream ("WTRC").
var binaryMagic = [4]byte{'W', 'T', 'R', 'C'}

// binaryVersion is the current binary schema version.
const binaryVersion = 1

// maxStringLen bounds a single interned string so corrupt length
// prefixes cannot drive huge allocations.
const maxStringLen = 1 << 20

// maxPrealloc caps slice preallocation from wire-declared counts.
const maxPrealloc = 1024

// capAlloc returns the preallocation capacity for a collection whose
// length n came from the wire: at most maxPrealloc, so an adversarial
// length prefix costs the attacker bytes, not us memory — slices grow
// incrementally past the bound. The Decoder sizes every count-prefixed
// collection through this one helper.
func capAlloc(n int) int { return min(n, maxPrealloc) }

// WriteBinary serializes the trace in the binary format.
func (tr *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	e := &binWriter{w: bw, index: make(map[string]uint64)}

	// First pass: intern every string in deterministic encounter order.
	for _, tp := range tr.Tuples {
		if tp == nil {
			return fmt.Errorf("trace: null tuple")
		}
		e.intern(tp.Thread)
		e.intern(tp.Lock)
		e.intern(tp.Site)
		e.intern(tp.Idx.Thread)
		e.intern(tp.Key.Thread)
		e.intern(tp.Key.Site)
		for _, h := range tp.Held {
			e.intern(h.Lock)
			e.intern(h.Site)
			e.intern(h.Idx.Thread)
			e.intern(h.Key.Thread)
			e.intern(h.Key.Site)
		}
	}

	e.uvarint(binaryVersion)
	e.varint(tr.Seed)
	e.uvarint(uint64(tr.Steps))
	e.uvarint(uint64(len(tr.Taus)))
	for _, tau := range tr.Taus {
		e.varint(int64(tau))
	}
	e.uvarint(uint64(len(tr.Clocks)))
	for _, v := range tr.Clocks {
		e.uvarint(uint64(len(v)))
		for _, p := range v {
			e.varint(int64(p.S))
			e.varint(int64(p.J))
		}
	}
	e.uvarint(uint64(len(e.table)))
	for _, s := range e.table {
		e.uvarint(uint64(len(s)))
		e.bytes([]byte(s))
	}
	e.uvarint(uint64(len(tr.Tuples)))
	for _, tp := range tr.Tuples {
		e.str(tp.Thread)
		e.str(tp.Lock)
		e.str(tp.Site)
		e.varint(int64(tp.ThreadID))
		e.str(tp.Idx.Thread)
		e.uvarint(uint64(tp.Idx.Seq))
		e.str(tp.Key.Thread)
		e.str(tp.Key.Site)
		e.uvarint(uint64(tp.Key.Occ))
		e.varint(int64(tp.Tau))
		e.uvarint(uint64(tp.Pos))
		e.uvarint(uint64(len(tp.Held)))
		for _, h := range tp.Held {
			e.str(h.Lock)
			e.str(h.Site)
			e.str(h.Idx.Thread)
			e.uvarint(uint64(h.Idx.Seq))
			e.str(h.Key.Thread)
			e.str(h.Key.Site)
			e.uvarint(uint64(h.Key.Occ))
		}
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// binWriter accumulates varint-encoded fields, interning strings.
type binWriter struct {
	w     *bufio.Writer
	buf   [binary.MaxVarintLen64]byte
	table []string
	index map[string]uint64
	err   error
}

func (e *binWriter) intern(s string) {
	if _, ok := e.index[s]; !ok {
		e.index[s] = uint64(len(e.table))
		e.table = append(e.table, s)
	}
}

func (e *binWriter) str(s string) { e.uvarint(e.index[s]) }

func (e *binWriter) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *binWriter) varint(v int64) {
	if e.err != nil {
		return
	}
	n := binary.PutVarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *binWriter) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

// ReadBinary deserializes a trace written by WriteBinary, rebuilding the
// per-thread indexes, and validates it (Validate's rules, checked as
// each tuple decodes). Malformed input yields an error, never a panic,
// and allocations are bounded by the input length.
func ReadBinary(r io.Reader) (*Trace, error) { return decodeBinary(r) }

// Decode reads and validates a trace in either supported format,
// sniffing the binary magic: uploads to wolfd and the wolf -trace flag
// accept both without the caller declaring which one it is. Binary
// input goes through the Decoder; JSON through Read, then Validate.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && [4]byte(head) == binaryMagic {
		return decodeBinary(br)
	}
	tr, err := Read(br)
	if err != nil {
		return nil, err
	}
	if err := Validate(tr); err != nil {
		return nil, err
	}
	return tr, nil
}
