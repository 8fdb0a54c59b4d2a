package core

import (
	"testing"

	"wolf/internal/detect"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/sim"
)

// TestGroupDefects: cycles sharing source locations collapse into one
// defect (paper Section 4.3), keeping the cycles in first-occurrence
// order.
func TestGroupDefects(t *testing.T) {
	var a, b *sim.Lock
	opts := sim.Options{Setup: func(w *sim.World) {
		a, b = w.NewLock("A"), w.NewLock("B")
	}}
	// Each worker performs the same inversion twice from the same source
	// sites on the same lock objects → multiple cycles, one defect.
	prog := func(th *sim.Thread) {
		left := func(u *sim.Thread) {
			for i := 0; i < 2; i++ {
				u.Lock(a, "L1")
				u.Lock(b, "L2")
				u.Unlock(b, "L3")
				u.Unlock(a, "L4")
			}
		}
		right := func(u *sim.Thread) {
			for i := 0; i < 2; i++ {
				u.Lock(b, "R1")
				u.Lock(a, "R2")
				u.Unlock(a, "R3")
				u.Unlock(b, "R4")
			}
		}
		h1 := th.Go("l", left, "m1")
		h2 := th.Go("r", right, "m2")
		th.Join(h1, "m3")
		th.Join(h2, "m4")
	}
	vt := vclock.NewTracker()
	rec := trace.NewRecorder(vt)
	opts.Listeners = append(opts.Listeners, vt, rec)
	if out := sim.Run(prog, sim.FirstEnabled{}, opts); out.Kind != sim.Terminated {
		t.Fatalf("outcome = %v", out)
	}
	cycles := detect.Cycles(rec.Finish(0), detect.Config{})
	if len(cycles) != 4 {
		t.Fatalf("found %d cycles, want 4 (2 iterations × 2 iterations)", len(cycles))
	}
	rep := &Report{}
	for _, c := range cycles {
		rep.Cycles = append(rep.Cycles, &CycleReport{Cycle: c, Class: Unknown})
	}
	rep.group()
	if len(rep.Defects) != 1 {
		t.Fatalf("grouped into %d defects, want 1", len(rep.Defects))
	}
	d := rep.Defects[0]
	if d.Signature != "L2+R2" {
		t.Fatalf("defect signature = %s, want L2+R2", d.Signature)
	}
	for i, cr := range d.Cycles {
		if cr.Cycle != cycles[i] {
			t.Fatalf("defect cycle %d out of first-occurrence order", i)
		}
	}
}
