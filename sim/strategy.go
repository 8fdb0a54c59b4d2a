package sim

import "math/rand"

// Strategy decides which enabled thread executes its pending operation
// next. Pick is never called with an empty enabled slice; enabled is in
// thread-creation order. Pick must return one of the enabled threads.
// The world reuses enabled's backing array on the next step, so it is
// valid only during the call: Pick must neither keep nor modify it.
//
// Strategies are the extension point the WOLF Replayer and the
// DeadlockFuzzer baseline plug into: both steer the schedule by choosing
// (or refusing to choose) threads that are about to acquire locks.
type Strategy interface {
	Pick(w *World, enabled []*Thread) *Thread
}

// StrategyFunc adapts a function to the Strategy interface.
type StrategyFunc func(w *World, enabled []*Thread) *Thread

// Pick calls f.
func (f StrategyFunc) Pick(w *World, enabled []*Thread) *Thread { return f(w, enabled) }

// RandomStrategy schedules uniformly at random with a seeded source,
// modeling the OS scheduler during the paper's detection runs
// (Algorithm 1 picks "a random thread from Enabled").
type RandomStrategy struct {
	rng *rand.Rand
}

// NewRandomStrategy returns a random strategy with the given seed.
// Runs are reproducible: the same program, seed and options yield the
// same schedule.
func NewRandomStrategy(seed int64) *RandomStrategy {
	return &RandomStrategy{rng: NewRand(seed)}
}

// Pick returns a uniformly random enabled thread.
func (s *RandomStrategy) Pick(_ *World, enabled []*Thread) *Thread {
	return enabled[s.rng.Intn(len(enabled))]
}

// RoundRobin schedules enabled threads cyclically by thread ID, a useful
// deterministic baseline in tests.
type RoundRobin struct {
	last ThreadID
}

// Pick returns the enabled thread with the smallest ID greater than the
// previously picked one, wrapping around.
func (s *RoundRobin) Pick(_ *World, enabled []*Thread) *Thread {
	for _, t := range enabled {
		if t.ID() > s.last {
			s.last = t.ID()
			return t
		}
	}
	s.last = enabled[0].ID()
	return enabled[0]
}

// FirstEnabled always runs the enabled thread with the smallest ID,
// driving each thread as far as possible before switching. It is the
// most sequential schedule and rarely exposes deadlocks.
type FirstEnabled struct{}

// Pick returns enabled[0].
func (FirstEnabled) Pick(_ *World, enabled []*Thread) *Thread { return enabled[0] }

// PreferenceStrategy consults choose and falls back to the base strategy
// when choose returns nil. It composes replay logic with random noise.
type PreferenceStrategy struct {
	Choose func(w *World, enabled []*Thread) *Thread
	Base   Strategy
}

// Pick applies Choose, then Base.
func (s *PreferenceStrategy) Pick(w *World, enabled []*Thread) *Thread {
	if t := s.Choose(w, enabled); t != nil {
		return t
	}
	return s.Base.Pick(w, enabled)
}
