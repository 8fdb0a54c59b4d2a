// Package fuzzer implements the DeadlockFuzzer baseline (Joshi et al.,
// PLDI 2009) that the paper compares WOLF against.
//
// DeadlockFuzzer reproduces a potential deadlock by randomized scheduling
// plus abstraction-based pausing: threads and locks are identified by
// *abstractions* derived from their creation sites (not by the concrete
// instances of the recorded run), and any thread whose abstraction
// matches a cycle component is paused right before the matching lock
// acquisition. When every component of the cycle has a paused thread,
// all of them are released at once, which drives the intended deadlock —
// if the right threads were paused.
//
// The two weaknesses the paper demonstrates are inherent here:
//
//   - abstraction collision: twin threads created at the same site are
//     indistinguishable, so the wrong one may be paused (Figure 9), and
//     "all threads with the required abstraction" get paused;
//   - no trace-derived ordering: without the synchronization dependency
//     graph, acquisitions that must precede the deadlocking context (for
//     example Figure 2's interim size() acquisition) are left to chance,
//     biasing reproduction toward deadlocks that occur earlier in the
//     code.
package fuzzer

import (
	"math/rand"

	"wolf/internal/detect"
	"wolf/internal/fingerprint"
	"wolf/internal/replay"
	"wolf/sim"
)

// DefaultAttempts matches the replay package's trial budget.
const DefaultAttempts = 5

// ThreadAbs returns the creation-site abstraction of a thread name:
// per-parent ordinals are stripped, so "main/w.0" and "main/w.1" share
// the abstraction "main/w". This models DeadlockFuzzer's object
// abstractions, under which threads created at the same program point
// are indistinguishable. The abstraction itself lives in the
// fingerprint package, where the defect corpus reuses it for cross-run
// deadlock identity.
func ThreadAbs(name string) string { return fingerprint.ThreadAbs(name) }

// LockAbs returns the allocation-site abstraction of a lock name.
// Convention: an explicit "#instance" suffix marks same-site instances
// ("mutex#SM1" and "mutex#SM2" share abstraction "mutex"), and locks
// allocated by threads ("base@thread.k") collapse their allocation
// ordinal and the allocating thread's ordinals.
func LockAbs(name string) string { return fingerprint.LockAbs(name) }

// component is one node of the target cycle, abstracted.
type component struct {
	// thread is the thread abstraction that must block here.
	thread string
	// site is the source location of the deadlocking acquisition.
	site string
	// want is the abstraction of the lock being acquired.
	want string
	// held are the abstractions of the locks the thread must hold.
	held []string
}

// matches reports whether thread t, about to acquire l at site, is "in
// position" for component c. The checks run cheapest first: the site is
// a plain comparison, and the abstractions come from s's per-run caches.
func (s *strategy) matches(c *component, t *sim.Thread, l *sim.Lock, site string) bool {
	if site != c.site || s.lockAbs(l) != c.want || s.threadAbs(t) != c.thread {
		return false
	}
	for _, h := range c.held {
		found := false
		for _, hl := range t.Held() {
			if s.lockAbs(hl) == h {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// threadAbs returns ThreadAbs of t's name, computed once per run.
func (s *strategy) threadAbs(t *sim.Thread) string {
	return cachedAbs(&s.threadAbsOf, int(t.ID()), t.Name(), ThreadAbs)
}

// lockAbs returns LockAbs of l's name, computed once per run.
func (s *strategy) lockAbs(l *sim.Lock) string {
	return cachedAbs(&s.lockAbsOf, int(l.ID()), l.Name(), LockAbs)
}

// cachedAbs returns abs(name) from cache, indexed by the per-run dense
// id of name's thread or lock, computing it on first use. An empty
// entry is unset.
func cachedAbs(cache *[]string, id int, name string, abs func(string) string) string {
	for len(*cache) <= id {
		*cache = append(*cache, "")
	}
	a := (*cache)[id]
	if a == "" {
		a = abs(name)
		(*cache)[id] = a
	}
	return a
}

// PauseProbability is the chance that an in-position thread is actually
// paused at a matching acquisition. DeadlockFuzzer is a randomized
// analysis whose pauses depend on scheduling jitter; a deterministic
// always-pause policy would force every run into the earliest deadlock
// (the bias the paper describes) and never reach later ones at all.
const PauseProbability = 0.5

// strategy implements the DeadlockFuzzer scheduler for one run.
type strategy struct {
	comps    []*component
	rng      *rand.Rand
	paused   map[*sim.Thread]int // thread → component index
	filled   []int               // per-component paused-thread count
	released bool                // the all-filled "go" signal fired
	// decided records the coin flip for a thread's current pending
	// operation (keyed by the operation's sequence number) so the
	// pause decision is made once per acquisition, not per Pick call.
	decided map[*sim.Thread]pauseDecision
	// thrashes counts forced releases when everything was paused.
	thrashes int
	// buf backs Pick's candidate and victim lists, reused every step.
	buf []*sim.Thread
	// threadAbsOf and lockAbsOf cache the abstractions of the run's
	// threads and locks, indexed by their IDs.
	threadAbsOf, lockAbsOf []string
}

// pauseDecision caches one coin flip.
type pauseDecision struct {
	seq   int
	pause bool
}

// Pick pauses in-position threads until every component is covered, then
// releases the pack into the deadlock; otherwise it schedules randomly.
func (s *strategy) Pick(_ *sim.World, enabled []*sim.Thread) *sim.Thread {
	candidates := s.buf[:0]
	for _, t := range enabled {
		if _, isPaused := s.paused[t]; isPaused {
			if s.released {
				delete(s.paused, t)
				candidates = append(candidates, t)
			}
			continue
		}
		if !s.released {
			op := t.Pending()
			isAcq := op.Kind == sim.OpLock || op.Kind == sim.OpWaitResume
			if isAcq && !t.Holds(op.Lock) {
				if ci := s.match(t, op); ci >= 0 && s.shouldPause(t) {
					// Pause this thread — and keep pausing every other
					// matching thread, as DeadlockFuzzer does.
					s.paused[t] = ci
					s.filled[ci]++
					s.checkAllFilled()
					continue
				}
			}
		}
		candidates = append(candidates, t)
	}
	if len(candidates) == 0 {
		// Thrash avoidance: every runnable thread is paused; release a
		// random one and unfill its component.
		s.thrashes++
		// Victims in enabled order, so the draw below is deterministic.
		victims := candidates
		for _, e := range enabled {
			if _, isPaused := s.paused[e]; isPaused {
				victims = append(victims, e)
			}
		}
		s.buf = victims
		if len(victims) == 0 {
			// Paused threads are all sim-blocked; nothing to do but run
			// an arbitrary enabled thread (there are none — cannot
			// happen, Pick is never called with empty enabled), so fall
			// back to releasing the pack.
			s.released = true
			return enabled[s.rng.Intn(len(enabled))]
		}
		t := victims[s.rng.Intn(len(victims))]
		s.filled[s.paused[t]]--
		delete(s.paused, t)
		return t
	}
	s.buf = candidates
	return candidates[s.rng.Intn(len(candidates))]
}

// shouldPause flips (once per pending acquisition) whether scheduling
// jitter lets the fuzzer pause the thread in time.
func (s *strategy) shouldPause(t *sim.Thread) bool {
	if d, ok := s.decided[t]; ok && d.seq == t.Seq()+1 {
		return d.pause
	}
	d := pauseDecision{seq: t.Seq() + 1, pause: s.rng.Float64() < PauseProbability}
	s.decided[t] = d
	return d.pause
}

// match returns the index of an unreleased component t is in position
// for, or -1.
func (s *strategy) match(t *sim.Thread, op sim.Op) int {
	for i, c := range s.comps {
		if s.matches(c, t, op.Lock, op.Site) {
			return i
		}
	}
	return -1
}

// checkAllFilled fires the release signal once every component has at
// least one paused thread.
func (s *strategy) checkAllFilled() {
	for _, n := range s.filled {
		if n == 0 {
			return
		}
	}
	s.released = true
}

// Attempt performs one DeadlockFuzzer-style re-execution targeting cycle.
func Attempt(f sim.Factory, cycle *detect.Cycle, seed int64, maxSteps int) *sim.Outcome {
	prog, opts := f()
	if maxSteps > 0 {
		opts.MaxSteps = maxSteps
	}
	return sim.Run(prog, newStrategy(cycle, seed), opts)
}

// newStrategy returns the scheduler of one run targeting cycle.
func newStrategy(cycle *detect.Cycle, seed int64) *strategy {
	st := &strategy{
		rng:     sim.NewRand(seed),
		paused:  make(map[*sim.Thread]int),
		filled:  make([]int, len(cycle.Tuples)),
		decided: make(map[*sim.Thread]pauseDecision),
	}
	for _, tp := range cycle.Tuples {
		c := &component{
			thread: ThreadAbs(tp.Thread),
			site:   tp.Site,
			want:   LockAbs(tp.Lock),
		}
		for _, h := range tp.Held {
			c.held = append(c.held, LockAbs(h.Lock))
		}
		st.comps = append(st.comps, c)
	}
	return st
}

// Hit applies the same exact-location criterion as the WOLF Replayer.
func Hit(out *sim.Outcome, cycle *detect.Cycle) bool { return replay.Hit(out, cycle) }

// Config controls reproduction.
type Config struct {
	// Attempts is the trial budget; DefaultAttempts when zero.
	Attempts int
	// BaseSeed seeds attempt i with BaseSeed + i.
	BaseSeed int64
	// MaxSteps bounds each run.
	MaxSteps int
}

// Reproduce runs up to cfg.Attempts executions, stopping at the first hit.
func Reproduce(f sim.Factory, cycle *detect.Cycle, cfg Config) replay.Result {
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	var res replay.Result
	for i := 0; i < attempts; i++ {
		out := Attempt(f, cycle, cfg.BaseSeed+int64(i), cfg.MaxSteps)
		res.Attempts++
		res.LastOutcome = out
		if Hit(out, cycle) {
			res.Reproduced = true
			res.Hits++
			return res
		}
	}
	return res
}

// HitRate runs exactly runs attempts and returns the hit fraction
// (Figure 8's DF series).
func HitRate(f sim.Factory, cycle *detect.Cycle, runs int, cfg Config) float64 {
	if runs <= 0 {
		return 0
	}
	hits := 0
	for i := 0; i < runs; i++ {
		if Hit(Attempt(f, cycle, cfg.BaseSeed+int64(i), cfg.MaxSteps), cycle) {
			hits++
		}
	}
	return float64(hits) / float64(runs)
}
