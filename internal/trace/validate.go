package trace

// Trace validation: structural integrity checks that gate analysis.
// Parsing only proves the bytes parse; validation proves the decoded
// relation Dσ is a trace some execution could actually have recorded —
// every tuple names its thread and locks, locksets are consistent,
// positions are dense, thread IDs resolve into the clock tables, and
// per-thread timestamps never run backwards. The Decoder and Decode
// apply it to every trace they return, so wolfd rejects failures with
// HTTP 422 before any analysis work is queued.
//
// Every invariant here is deliberately per-thread, because recorders
// fall into two classes with different global guarantees:
//
//   - The sim recorder serializes the whole execution, so its traces
//     happen to be globally ordered — taus grow along the entire trace
//     and the clock/timestamp tables are fully populated.
//   - Runtime recorders (wolfsync) observe real goroutines running on
//     real CPUs. Trace order is a drain order, not a happens-before
//     order: tuples from concurrent goroutines interleave arbitrarily,
//     and wall-clock taus from different goroutines may run "backwards"
//     across threads (goroutine A's τ=1000 can precede B's τ=50 in
//     trace order). That skew is legal — only each thread's own
//     subsequence must be non-decreasing, which is exactly what
//     InvalidNonMonotonicTau checks. Validate never compares taus
//     across threads.
//
// Runtime recorders also omit the clock and timestamp tables entirely
// (vector clocks are a sim artifact); with no tables recorded, thread
// IDs only need to be non-negative, and Bottom taus are exempt from the
// monotonicity rule. What survives recorder class is the per-thread
// core the detector depends on: dense positions, self-consistent
// keys/indices, and well-formed locksets.

import (
	"errors"
	"fmt"

	"wolf/internal/vclock"
)

// ErrInvalid is the sentinel every validation error wraps
// (errors.Is(err, ErrInvalid)).
var ErrInvalid = errors.New("invalid trace")

// Validation classes: the distinct corruption categories Validate
// detects. Each ValidationError carries exactly one.
const (
	// InvalidMissingField: a tuple is nil or lacks a thread, lock or
	// site name.
	InvalidMissingField = "missing-field"
	// InvalidBadKey: a tuple's stable key or execution index contradicts
	// the tuple itself (wrong thread, wrong site, non-positive occurrence).
	InvalidBadKey = "bad-key"
	// InvalidBadPosition: per-thread positions are not dense 0..n-1 in
	// trace order.
	InvalidBadPosition = "bad-position"
	// InvalidHeldSet: a lockset entry is empty, duplicated, or contains
	// the lock being acquired (an acquisition is never in its own L_t).
	InvalidHeldSet = "held-set"
	// InvalidThreadID: a tuple's thread ID does not resolve into the
	// recorded clock/timestamp tables.
	InvalidThreadID = "thread-id"
	// InvalidClockShape: the clock and timestamp tables disagree in
	// length, or a clock vector is wider than the thread table.
	InvalidClockShape = "clock-shape"
	// InvalidNonMonotonicTau: a thread's timestamps decrease along its
	// own tuple sequence (τ is a per-thread logical clock; it only
	// grows). Taus are never compared across threads: wall-clock skew
	// between concurrent goroutines is legal in runtime-recorded traces.
	InvalidNonMonotonicTau = "non-monotonic-tau"
)

// ValidationError describes one structural defect found by Validate.
type ValidationError struct {
	// Class is the corruption class (one of the Invalid* constants).
	Class string
	// Tuple is the index of the offending tuple in Dσ, -1 for
	// trace-level defects.
	Tuple int
	// Detail is a human-readable explanation.
	Detail string
}

// Error implements error.
func (e *ValidationError) Error() string {
	if e.Tuple < 0 {
		return fmt.Sprintf("trace: invalid (%s): %s", e.Class, e.Detail)
	}
	return fmt.Sprintf("trace: invalid (%s) at tuple %d: %s", e.Class, e.Tuple, e.Detail)
}

// Unwrap ties every validation error to ErrInvalid.
func (e *ValidationError) Unwrap() error { return ErrInvalid }

// invalidf builds a ValidationError.
func invalidf(class string, tuple int, format string, args ...any) error {
	return &ValidationError{Class: class, Tuple: tuple, Detail: fmt.Sprintf(format, args...)}
}

// validateClocks checks the clock and timestamp tables of a trace: the
// two tables must agree in length when both were recorded, and no clock
// vector may be wider than the thread table. It is split out of
// Validate so the Decoder can run it as soon as the header
// sections (taus, clocks) complete, before any tuple arrives.
func validateClocks(clocks []vclock.Vector, taus []int) error {
	if len(taus) > 0 && len(clocks) > 0 && len(taus) != len(clocks) {
		return invalidf(InvalidClockShape, -1,
			"%d timestamps but %d clock vectors", len(taus), len(clocks))
	}
	for i, v := range clocks {
		if len(v) > len(clocks) {
			return invalidf(InvalidClockShape, -1,
				"clock vector %d has %d entries for %d threads", i, len(v), len(clocks))
		}
	}
	return nil
}

// tupleValidator applies Validate's per-tuple rules incrementally, in
// trace order — the Decoder's 422 gate, which fires at the chunk that
// holds the bad tuple. Feed every tuple through Check as it decodes;
// the first defect is returned as the same *ValidationError batch
// validation would produce.
type tupleValidator struct {
	// nThreads is the recorded thread-table size tuples' thread IDs must
	// resolve into (0 when neither clocks nor taus were recorded).
	nThreads int
	threads  map[string]*threadCheck
	n        int
}

// threadCheck is one thread's running state: the position its next
// tuple must have and the last non-Bottom timestamp seen.
type threadCheck struct {
	pos     int
	lastTau int
	hasTau  bool
}

// newTupleValidator returns a validator for a trace whose clock and
// timestamp tables are clocks and taus (either may be empty).
func newTupleValidator(clocks []vclock.Vector, taus []int) *tupleValidator {
	nThreads := len(clocks)
	if nThreads == 0 {
		nThreads = len(taus)
	}
	return &tupleValidator{nThreads: nThreads, threads: make(map[string]*threadCheck)}
}

// Check validates the next tuple in trace order, returning a
// *ValidationError for the first defect found.
func (v *tupleValidator) Check(tp *Tuple) error {
	i := v.n
	v.n++
	if tp == nil {
		return invalidf(InvalidMissingField, i, "nil tuple")
	}
	if tp.Thread == "" || tp.Lock == "" || tp.Site == "" {
		return invalidf(InvalidMissingField, i,
			"thread=%q lock=%q site=%q", tp.Thread, tp.Lock, tp.Site)
	}
	if tp.Key.Thread != tp.Thread || tp.Key.Site != tp.Site || tp.Key.Occ < 1 {
		return invalidf(InvalidBadKey, i, "key %v contradicts tuple %v", tp.Key, tp)
	}
	if tp.Idx.Thread != tp.Thread || tp.Idx.Seq < 1 {
		return invalidf(InvalidBadKey, i, "index %v contradicts tuple %v", tp.Idx, tp)
	}
	th := v.threads[tp.Thread]
	if th == nil {
		th = &threadCheck{}
		v.threads[tp.Thread] = th
	}
	if tp.Pos != th.pos {
		return invalidf(InvalidBadPosition, i,
			"thread %s position %d, want %d", tp.Thread, tp.Pos, th.pos)
	}
	th.pos++
	// Locksets are short: a pairwise scan finds duplicates without a
	// per-tuple map, which only pays off for long ones.
	var seen map[string]bool
	if len(tp.Held) > 8 {
		seen = make(map[string]bool, len(tp.Held))
	}
	for j, h := range tp.Held {
		switch {
		case h.Lock == "":
			return invalidf(InvalidHeldSet, i, "lockset entry without a lock name")
		case h.Lock == tp.Lock:
			return invalidf(InvalidHeldSet, i,
				"acquired lock %s appears in its own lockset", tp.Lock)
		case seen[h.Lock] || seen == nil && heldBefore(tp.Held[:j], h.Lock):
			return invalidf(InvalidHeldSet, i, "lock %s held twice", h.Lock)
		}
		if seen != nil {
			seen[h.Lock] = true
		}
	}
	// Thread IDs index the clock and timestamp tables; when neither
	// was recorded (the base, timestamp-free detector) any
	// non-negative dense ID is acceptable.
	if tp.ThreadID < 0 || (v.nThreads > 0 && int(tp.ThreadID) >= v.nThreads) {
		return invalidf(InvalidThreadID, i,
			"thread id %d outside recorded table of %d", tp.ThreadID, v.nThreads)
	}
	if tp.Tau != vclock.Bottom {
		if th.hasTau && tp.Tau < th.lastTau {
			return invalidf(InvalidNonMonotonicTau, i,
				"thread %s timestamp %d after %d", tp.Thread, tp.Tau, th.lastTau)
		}
		th.lastTau, th.hasTau = tp.Tau, true
	}
	return nil
}

// heldBefore reports whether lock appears in held.
func heldBefore(held []HeldLock, lock string) bool {
	for _, h := range held {
		if h.Lock == lock {
			return true
		}
	}
	return false
}

// Validate checks the structural integrity of a decoded trace and
// returns the first defect found as a *ValidationError (nil when the
// trace is well-formed). It never mutates the trace. It is the batch
// composition of validateClocks and tupleValidator, which the Decoder
// runs incrementally instead.
func Validate(tr *Trace) error {
	if tr == nil {
		return invalidf(InvalidMissingField, -1, "nil trace")
	}
	if err := validateClocks(tr.Clocks, tr.Taus); err != nil {
		return err
	}
	v := newTupleValidator(tr.Clocks, tr.Taus)
	for _, tp := range tr.Tuples {
		if err := v.Check(tp); err != nil {
			return err
		}
	}
	return nil
}
