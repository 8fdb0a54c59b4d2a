package trace

import (
	"fmt"

	"wolf/sim"
)

// DataEvent is one recorded shared-variable access. Data events let the
// Generator add value-flow (type-V) constraints to the synchronization
// dependency graph — the data-dependency extension the paper proposes
// as future work in Section 4.4.
type DataEvent struct {
	// Thread is the accessing thread's stable name.
	Thread string
	// Var is the variable's stable name.
	Var string
	// Store is true for writes.
	Store bool
	// Site is the access's source location.
	Site string
	// Key is the stable cross-run identity of the access (its own
	// occurrence counter, shared with the acquisition key space).
	Key Key
	// Observed is the key of the store whose value this load returned;
	// zero for stores, for loads of the initial value, and for loads of
	// a value the reading thread itself wrote last.
	Observed Key
	// PosAfter is the number of lock-acquisition tuples the thread had
	// recorded when the access happened: the event sits between tuple
	// PosAfter-1 and tuple PosAfter in program order.
	PosAfter int
	// Idx is the per-run execution index.
	Idx sim.Index
}

// String formats the event for diagnostics.
func (d *DataEvent) String() string {
	kind := "load"
	if d.Store {
		kind = "store"
	}
	return fmt.Sprintf("%s(%s)@%s by %s", kind, d.Var, d.Site, d.Thread)
}

// recordData handles OpLoad/OpStore events inside the Recorder.
func (r *Recorder) recordData(ev sim.Event) {
	name := ev.Thread.Name()
	b := r.threads.Get(name)
	de := &DataEvent{
		Thread:   name,
		Var:      ev.Op.Var.Name(),
		Store:    ev.Op.Kind == sim.OpStore,
		Site:     ev.Op.Site,
		Key:      b.CountKey(ev.Op.Site),
		PosAfter: b.Pos(),
		Idx:      ev.Index,
	}
	if de.Store {
		r.lastStore[de.Var] = de.Key
	} else if last, ok := r.lastStore[de.Var]; ok && last.Thread != name {
		de.Observed = last
	}
	r.data = append(r.data, de)
	r.dataByThread[name] = append(r.dataByThread[name], de)
}
