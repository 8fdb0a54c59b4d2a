package sim

import "math/rand"

// PCTStrategy implements Probabilistic Concurrency Testing (Burckhardt
// et al., ASPLOS 2010): every thread gets a random priority, the
// highest-priority enabled thread always runs, and at d-1 random change
// points during the run the current thread's priority is demoted below
// everything else. For a program with n threads and k steps, one run
// finds any bug of depth d with probability at least 1/(n·k^(d-1)) —
// much better than uniform random scheduling for ordering bugs like
// deadlocks, which have depth 2.
//
// PCT is an alternative detection-phase scheduler: the paper's detector
// records whatever schedule it is given, and a PCT-driven run often
// covers inverted acquisition orders that uniform random runs miss.
type PCTStrategy struct {
	rng *rand.Rand
	// depth is the bug depth d (number of priority change points + 1).
	depth int
	// expectedSteps is the k used to place change points.
	expectedSteps int

	priorities   map[ThreadID]int
	changePoints map[int]bool
	nextHigh     int // descending counter for initial priorities
	nextLow      int // descending counter for demotions (below all highs)
	step         int
}

// NewPCTStrategy returns a PCT scheduler for bugs of the given depth,
// assuming runs of roughly expectedSteps operations.
func NewPCTStrategy(seed int64, depth, expectedSteps int) *PCTStrategy {
	if depth < 1 {
		depth = 1
	}
	if expectedSteps < 1 {
		expectedSteps = 1024
	}
	s := &PCTStrategy{
		rng:           NewRand(seed),
		depth:         depth,
		expectedSteps: expectedSteps,
		priorities:    make(map[ThreadID]int),
		changePoints:  make(map[int]bool),
		nextHigh:      1 << 30,
		nextLow:       1 << 10,
	}
	for i := 0; i < depth-1; i++ {
		s.changePoints[s.rng.Intn(expectedSteps)] = true
	}
	return s
}

// priority returns (assigning lazily) the thread's priority. New threads
// draw a fresh value just below previously assigned high priorities,
// with a random perturbation so creation order does not dominate.
func (s *PCTStrategy) priority(t *Thread) int {
	if p, ok := s.priorities[t.ID()]; ok {
		return p
	}
	s.nextHigh -= 1 + s.rng.Intn(1000)
	s.priorities[t.ID()] = s.nextHigh
	return s.nextHigh
}

// Pick runs the highest-priority enabled thread, demoting it first when
// the step hits a change point.
func (s *PCTStrategy) Pick(_ *World, enabled []*Thread) *Thread {
	best := enabled[0]
	bestP := s.priority(best)
	for _, t := range enabled[1:] {
		if p := s.priority(t); p > bestP {
			best, bestP = t, p
		}
	}
	if s.changePoints[s.step] {
		// Demote the would-be winner below every priority seen so far
		// and re-select.
		s.nextLow--
		s.priorities[best.ID()] = s.nextLow
		best = enabled[0]
		bestP = s.priority(best)
		for _, t := range enabled[1:] {
			if p := s.priority(t); p > bestP {
				best, bestP = t, p
			}
		}
	}
	s.step++
	return best
}
