package core

import (
	"fmt"
	"sort"

	"wolf/internal/detect"
	"wolf/internal/obs"
	"wolf/internal/replay"
	"wolf/internal/sdg"
	"wolf/internal/trace"
	"wolf/sim"
)

// TimelineListener renders an executing schedule as Chrome trace events
// on one process track group: one track per thread (tid = sim thread ID
// + 1, matching the replayer's pause markers), lock holds and monitor
// waits as duration slices, thread lifecycle and data accesses as
// instants, and a process-wide locks-held counter. Timestamps are the
// sim step counter, so identical schedules export identical timelines.
type TimelineListener struct {
	tl  *obs.Timeline
	pid int64
	// held is each thread's stack of open slices, innermost last. Lock
	// releases may be out of LIFO order while Chrome slices must nest,
	// so release closes intervening slices and reopens them.
	held  map[string][]openSlice
	tids  map[string]int64
	locks int64
}

// openSlice is one open duration slice on a thread track.
type openSlice struct{ name, cat string }

// NewTimelineListener returns a listener emitting onto tl under pid.
func NewTimelineListener(tl *obs.Timeline, pid int64) *TimelineListener {
	return &TimelineListener{
		tl:   tl,
		pid:  pid,
		held: make(map[string][]openSlice),
		tids: make(map[string]int64),
	}
}

// tid interns the thread's track, emitting its metadata on first use.
func (l *TimelineListener) tid(t *sim.Thread) int64 {
	name := t.Name()
	tid, ok := l.tids[name]
	if !ok {
		tid = int64(t.ID()) + 1
		l.tids[name] = tid
		l.tl.Thread(l.pid, tid, name)
	}
	return tid
}

// counter samples the process-wide locks-held series.
func (l *TimelineListener) counter(ts int64) {
	l.tl.Counter(l.pid, 0, "locks-held", ts, map[string]any{"locks": l.locks})
}

// open starts a slice on the thread's track and pushes it on the stack.
func (l *TimelineListener) open(tid int64, thread string, sl openSlice, ts int64, args map[string]any) {
	l.tl.Begin(l.pid, tid, sl.name, sl.cat, ts, args)
	l.held[thread] = append(l.held[thread], sl)
}

// release closes the named slice. When it is not the innermost open
// slice the slices above it are closed and immediately reopened at the
// same timestamp, preserving Chrome's strict per-track nesting.
func (l *TimelineListener) release(tid int64, thread, name string, ts int64) {
	stack := l.held[thread]
	i := len(stack) - 1
	for i >= 0 && stack[i].name != name {
		i--
	}
	if i < 0 {
		return
	}
	for j := len(stack) - 1; j >= i; j-- {
		l.tl.End(l.pid, tid, ts)
	}
	for j := i + 1; j < len(stack); j++ {
		l.tl.Begin(l.pid, tid, stack[j].name, stack[j].cat, ts, nil)
	}
	l.held[thread] = append(stack[:i], stack[i+1:]...)
}

// closeAll ends every open slice of the thread.
func (l *TimelineListener) closeAll(tid int64, thread string, ts int64) {
	for range l.held[thread] {
		l.tl.End(l.pid, tid, ts)
	}
	delete(l.held, thread)
}

// OnEvent implements sim.Listener.
func (l *TimelineListener) OnEvent(ev sim.Event) {
	ts := int64(ev.Step)
	tid := l.tid(ev.Thread)
	thread := ev.Thread.Name()
	switch ev.Op.Kind {
	case sim.OpBegin:
		l.tl.Instant(l.pid, tid, "begin", "thread", ts, "t", nil)
	case sim.OpLock:
		if ev.Reentrant {
			return
		}
		l.open(tid, thread, openSlice{ev.Op.Lock.Name(), "lock"}, ts, map[string]any{"site": ev.Op.Site})
		l.locks++
		l.counter(ts)
	case sim.OpUnlock:
		if ev.Reentrant {
			return
		}
		l.release(tid, thread, ev.Op.Lock.Name(), ts)
		l.locks--
		l.counter(ts)
	case sim.OpWait:
		// wait releases the monitor entirely (whatever its reentrancy
		// depth) and blocks in the wait set.
		l.release(tid, thread, ev.Op.Lock.Name(), ts)
		l.locks--
		l.open(tid, thread, openSlice{"wait " + ev.Op.Lock.Name(), "monitor"}, ts, map[string]any{"site": ev.Op.Site})
		l.counter(ts)
	case sim.OpWaitResume:
		// The notified thread reacquired the monitor.
		l.release(tid, thread, "wait "+ev.Op.Lock.Name(), ts)
		l.open(tid, thread, openSlice{ev.Op.Lock.Name(), "lock"}, ts, map[string]any{"site": ev.Op.Site})
		l.locks++
		l.counter(ts)
	case sim.OpNotify, sim.OpNotifyAll:
		l.tl.Instant(l.pid, tid, ev.Op.Kind.String()+" "+ev.Op.Lock.Name(), "monitor", ts, "t", map[string]any{"site": ev.Op.Site})
	case sim.OpStart:
		l.tl.Instant(l.pid, tid, "start "+ev.Op.Child.Name(), "thread", ts, "t", map[string]any{"site": ev.Op.Site})
	case sim.OpJoin:
		l.tl.Instant(l.pid, tid, "join "+ev.Op.Target.Name(), "thread", ts, "t", map[string]any{"site": ev.Op.Site})
	case sim.OpLoad:
		l.tl.Instant(l.pid, tid, "load "+ev.Op.Var.Name(), "data", ts, "t", map[string]any{"site": ev.Op.Site})
	case sim.OpStore:
		l.tl.Instant(l.pid, tid, "store "+ev.Op.Var.Name(), "data", ts, "t",
			map[string]any{"site": ev.Op.Site, "val": fmt.Sprint(ev.Op.Val)})
	case sim.OpExit:
		l.closeAll(tid, thread, ts)
		l.tl.Instant(l.pid, tid, "exit", "thread", ts, "t", nil)
	case sim.OpPanic:
		l.closeAll(tid, thread, ts)
		l.tl.Instant(l.pid, tid, "panic", "thread", ts, "t", nil)
	}
}

// Finish closes the slices still open when the run stopped (threads
// blocked in a deadlock hold their locks forever) and, for deadlocked
// outcomes, draws a global deadlock marker plus a per-thread blocked
// instant carrying the blocking operation and held locks. Call it after
// sim.Run returns — and, on replayed runs, after the replayer has closed
// its pause slices, so nesting stays balanced.
func (l *TimelineListener) Finish(out *sim.Outcome) {
	ts := int64(out.Steps)
	if out.Deadlocked() {
		for _, b := range out.Blocked {
			tid, ok := l.tids[b.Thread]
			if !ok {
				continue
			}
			args := map[string]any{"op": b.Op.String()}
			if len(b.Holding) > 0 {
				args["holding"] = fmt.Sprint(b.Holding)
			}
			l.tl.Instant(l.pid, tid, "blocked", "outcome", ts, "t", args)
		}
		l.tl.Instant(l.pid, 0, "deadlock", "outcome", ts, "g", nil)
	}
	open := make([]string, 0, len(l.held))
	for thread, stack := range l.held {
		if len(stack) > 0 {
			open = append(open, thread)
		}
	}
	sort.Strings(open) // deterministic close order for golden tests
	for _, thread := range open {
		l.closeAll(l.tids[thread], thread, ts)
	}
}

// RunTimeline executes one run of f under the given schedule seed while
// exporting it to tl under pid. The sim scheduler is deterministic per
// seed, so re-running the seed an analysis used reproduces the exact
// recorded schedule.
func RunTimeline(f sim.Factory, seed int64, maxSteps int, tl *obs.Timeline, pid int64) *sim.Outcome {
	prog, opts := f()
	l := NewTimelineListener(tl, pid)
	opts.Listeners = append(opts.Listeners, l)
	if maxSteps > 0 {
		opts.MaxSteps = maxSteps
	}
	out := sim.Run(prog, sim.NewRandomStrategy(seed), opts)
	l.Finish(out)
	return out
}

// ReplayTimeline executes one steered replay attempt while exporting
// both the executed operations and the replayer's steering (pause
// slices, force-release markers) to tl under pid.
func ReplayTimeline(f sim.Factory, g *sdg.Graph, cycle *detect.Cycle, seed int64, maxSteps int, tl *obs.Timeline, pid int64) *sim.Outcome {
	l := NewTimelineListener(tl, pid)
	out := replay.AttemptObserved(f, g, cycle, seed, maxSteps, replay.Observer{
		Timeline:  tl,
		Pid:       pid,
		Listeners: []sim.Listener{l},
	})
	l.Finish(out)
	return out
}

// TimelineFromTrace renders a recorded trace on tl under pid. Dσ keeps
// only first lock acquisitions (no releases), so each tuple becomes an
// instant on its thread's track at its global trace position, with the
// lockset size as a per-thread counter; this is the view wolfd serves
// for archived jobs, where the program is gone and only the trace
// remains.
func TimelineFromTrace(tr *trace.Trace, tl *obs.Timeline, pid int64) {
	tl.Process(pid, fmt.Sprintf("trace seed=%d", tr.Seed))
	tids := make(map[string]int64)
	for i, tp := range tr.Tuples {
		tid, ok := tids[tp.Thread]
		if !ok {
			tid = int64(tp.ThreadID) + 1
			tids[tp.Thread] = tid
			tl.Thread(pid, tid, tp.Thread)
		}
		ts := int64(i)
		tl.Instant(pid, tid, "lock "+tp.Lock, "trace", ts, "t",
			map[string]any{"site": tp.Site, "held": len(tp.Held)})
		tl.Counter(pid, tid, "locks-held "+tp.Thread, ts, map[string]any{"locks": len(tp.Held) + 1})
	}
}

// BuildTimeline renders an analysis as a Perfetto-loadable timeline:
// process 1 is the recorded detection run of the first seed; when the
// report confirmed a deadlock, process 2 is the steered replay attempt
// that reproduced the first confirmed cycle (Reproduce stops on its
// first hit, so the hitting seed is ReplaySeed + attempts - 1). Both
// runs are re-executions under the seeds the analysis used.
func BuildTimeline(f sim.Factory, cfg Config, rep *Report) *obs.Timeline {
	tl := obs.NewTimeline()
	seed := cfg.detectSeeds()[0]
	tl.Process(1, fmt.Sprintf("detect seed=%d", seed))
	RunTimeline(f, seed, cfg.MaxSteps, tl, 1)
	for _, cr := range rep.Cycles {
		if cr.Class != Confirmed {
			continue
		}
		replaySeed := cfg.ReplaySeed + int64(cr.ReplayAttempts-1)
		tl.Process(2, fmt.Sprintf("replay %s seed=%d", cr.Cycle.Signature(), replaySeed))
		ReplayTimeline(f, cr.Graph(), cr.Cycle, replaySeed, cfg.MaxSteps, tl, 2)
		break
	}
	return tl
}
