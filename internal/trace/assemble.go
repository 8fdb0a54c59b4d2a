package trace

import "wolf/internal/vclock"

// Assemble builds a Trace from already-decoded parts, rebuilding the
// per-thread indexes. It is the batch form of the single assembly rule
// shared by the JSON reader, the WTRC Decoder and the wolfsync
// recorder: per-thread positions must be dense 0..n-1 in tuple order,
// anything else is structural corruption (ErrCorrupt).
func Assemble(tuples []*Tuple, clocks []vclock.Vector, taus []int, steps int, seed int64) (*Trace, error) {
	tr := &Trace{
		Tuples:   tuples,
		byThread: make(map[string][]*Tuple),
		Clocks:   clocks,
		Taus:     taus,
		Steps:    steps,
		Seed:     seed,
	}
	for _, tp := range tuples {
		if err := tr.indexThread(tp); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// indexThread files the next tuple in trace order under its thread. A nil
// tuple or a position that breaks its thread's density is ErrCorrupt.
func (tr *Trace) indexThread(tp *Tuple) error {
	if tp == nil {
		return corruptf("null tuple")
	}
	seq := tr.byThread[tp.Thread]
	if tp.Pos != len(seq) {
		return corruptf("tuple %v has position %d, want %d", tp, tp.Pos, len(seq))
	}
	tr.byThread[tp.Thread] = append(seq, tp)
	return nil
}
