// Package replay implements WOLF's Replayer (Algorithm 4 of the paper):
// it re-executes a program while steering the schedule so the
// synchronization dependency graph Gs of a potential deadlock is
// satisfied, which drives the execution into the deadlock and confirms
// the defect automatically.
//
// The Replayer monitors only the k threads of the k-thread cycle
// (matching the paper's implementation note in Section 4): other threads
// run freely. A cycle thread about to acquire a lock whose Gs vertex
// still has an unsatisfied cross-thread dependency is paused; once the
// dependency's source acquisition executes (or is skipped by divergent
// control flow) the vertex is pruned and the thread released. If every
// runnable thread is paused, a random one is force-released to guarantee
// progress.
package replay

import (
	"context"
	"math/rand"
	"sort"

	"wolf/internal/detect"
	"wolf/internal/obs"
	"wolf/internal/sdg"
	"wolf/internal/trace"
	"wolf/sim"
)

// DefaultAttempts is the pre-determined number of replay trials before a
// defect is left for manual comprehension.
const DefaultAttempts = 5

// DefaultFallbackAttempts is the PCT-randomized confirmation budget used
// once every steered attempt has diverged.
const DefaultFallbackAttempts = 3

// maxStepEscalation caps the step-budget growth across retries at
// base·2^maxStepEscalation.
const maxStepEscalation = 3

// Factory produces a fresh program and options for one run. Workload
// state must be rebuilt on every call so replays are independent.
type Factory = sim.Factory

// Config controls reproduction.
type Config struct {
	// Attempts is the number of steered replay trials; DefaultAttempts
	// when zero.
	Attempts int
	// BaseSeed seeds the replayer's tie-breaking randomness; attempt i
	// uses BaseSeed + i, and fallback runs continue the sequence.
	BaseSeed int64
	// MaxSteps bounds each replay run (sim.DefaultMaxSteps when zero).
	// Attempts that exhaust the budget escalate it (doubling, capped at
	// 2^3·MaxSteps) on the next trial.
	MaxSteps int
	// EdgeKinds restricts which Gs edge kinds steer the replay
	// (sdg.AllKinds when zero); used by ablation benchmarks.
	EdgeKinds sdg.Kind
	// Faults injects deterministic scheduling perturbations into every
	// attempt (steered and fallback); the zero value injects nothing.
	Faults sim.FaultConfig
	// FallbackAttempts is the PCT-randomized confirmation budget used
	// when all steered attempts diverge (DefaultFallbackAttempts when
	// zero; negative disables the fallback pass).
	FallbackAttempts int
}

// fallbackAttempts resolves the fallback budget.
func (cfg Config) fallbackAttempts() int {
	if cfg.FallbackAttempts < 0 {
		return 0
	}
	if cfg.FallbackAttempts == 0 {
		return DefaultFallbackAttempts
	}
	return cfg.FallbackAttempts
}

// Result reports a reproduction attempt series.
type Result struct {
	// Reproduced is true when some attempt deadlocked at the cycle's
	// source locations.
	Reproduced bool
	// Attempts is the number of steered runs executed (stops early on
	// success).
	Attempts int
	// Hits counts successful attempts (equals 0 or 1 unless RunAll).
	Hits int
	// LastOutcome is the outcome of the final attempt.
	LastOutcome *sim.Outcome
	// Method says which pass confirmed the cycle: MethodSteering,
	// MethodFallback, or MethodNone when unreproduced.
	Method Method
	// FallbackAttempts counts PCT-randomized confirmation runs executed.
	FallbackAttempts int
	// Divergence histograms the failed steered attempts by reason; every
	// unreproduced result carries a non-empty histogram.
	Divergence Divergence
	// Faults aggregates the scheduling perturbations injected across all
	// attempts (zero when injection is disabled).
	Faults sim.FaultStats
}

// strategy implements sim.Strategy and sim.Listener for one replay run.
type strategy struct {
	g       *sdg.Graph
	inCycle map[string]bool
	rng     *rand.Rand
	// inner, when non-nil, makes the final choice among the allowed
	// (non-paused) threads — the fault injector plugs in here, so
	// perturbations reorder what steering permits but can never run a
	// thread the replayer is holding back (a real scheduler cannot
	// preempt into a thread the tool keeps blocked either).
	inner sim.Strategy
	// occ mirrors the trace recorder's per-thread per-site occurrence
	// counters so pending acquisitions map to the same stable keys the
	// Gs vertices carry.
	occ map[string]map[string]int
	// forced counts force-releases (diagnostics: nonzero means Gs could
	// not be followed exactly).
	forced int
	// tl, when non-nil, receives the steering decisions the replayer
	// enforces — "paused" slices while a cycle thread is held back on an
	// unsatisfied Gs dependency, and force-release markers — on the
	// thread tracks of TimelinePid. This is the schedule the replayer
	// actually imposed, viewable in Perfetto next to the executed ops.
	tl     *obs.Timeline
	tlPid  int64
	paused map[string]bool
	tids   map[string]int64
}

// pauseMark records thread t's steering state flip — the paused map
// feeds divergence classification — and, when a timeline is attached,
// opens or closes a "paused" slice. ts is the sim step counter (the
// logical clock every timeline track shares).
func (s *strategy) pauseMark(t *sim.Thread, site string, ts int64, nowPaused bool) {
	if s.paused[t.Name()] == nowPaused {
		return
	}
	s.paused[t.Name()] = nowPaused
	if s.tl == nil {
		return
	}
	tid := int64(t.ID()) + 1
	s.tids[t.Name()] = tid
	if nowPaused {
		s.tl.Begin(s.tlPid, tid, "paused", "replay",
			ts, map[string]any{"site": site})
	} else {
		s.tl.End(s.tlPid, tid, ts)
	}
}

// pausedCount returns how many cycle threads are currently held back on
// an unsatisfied Gs dependency.
func (s *strategy) pausedCount() int {
	n := 0
	for _, isPaused := range s.paused {
		if isPaused {
			n++
		}
	}
	return n
}

// Pick implements Algorithm 4's scheduling: cycle threads whose next
// acquisition has an unsatisfied cross-thread dependency are paused;
// everything else is fair game. If only paused threads remain, one is
// released at random.
func (s *strategy) Pick(w *sim.World, enabled []*sim.Thread) *sim.Thread {
	ts := int64(w.Step())
	var allowed, paused []*sim.Thread
	for _, t := range enabled {
		if op := t.Pending(); s.inCycle[t.Name()] && isSteerable(op) && !(isAcquire(op) && t.Holds(op.Lock)) {
			key := trace.NextKey(s.occ, t.Name(), op.Site)
			if s.g.Blocked(key) {
				s.pauseMark(t, op.Site, ts, true)
				paused = append(paused, t)
				continue
			}
		}
		s.pauseMark(t, "", ts, false)
		allowed = append(allowed, t)
	}
	if len(allowed) == 0 {
		// Algorithm 4 lines 5-7: release a random paused thread so the
		// run cannot get stuck on unsatisfiable dependencies.
		s.forced++
		pick := paused[s.rng.Intn(len(paused))]
		s.pauseMark(pick, "", ts, false)
		if s.tl != nil {
			s.tl.Instant(s.tlPid, int64(pick.ID())+1, "force-release", "replay", ts, "t", nil)
		}
		return pick
	}
	if s.inner != nil {
		if t := s.inner.Pick(w, allowed); t != nil {
			return t
		}
	}
	return allowed[s.rng.Intn(len(allowed))]
}

// OnEvent prunes Gs as the run progresses: an executed acquisition of a
// cycle thread removes its vertex and everything that had to precede it
// (executed or skipped); a terminated cycle thread releases all its
// remaining vertices.
func (s *strategy) OnEvent(ev sim.Event) {
	name := ev.Thread.Name()
	if !s.inCycle[name] {
		return
	}
	switch ev.Op.Kind {
	case sim.OpLock, sim.OpWaitResume:
		if ev.Reentrant {
			return
		}
		s.g.Executed(trace.CountKey(s.occ, name, ev.Op.Site))
	case sim.OpLoad, sim.OpStore:
		// Data vertices exist only in graphs built with type-V edges;
		// Executed is a no-op otherwise.
		s.g.Executed(trace.CountKey(s.occ, name, ev.Op.Site))
	case sim.OpExit, sim.OpPanic:
		s.g.RemoveThread(name)
	}
}

// isAcquire reports whether op blocks on a lock acquisition (a plain
// Lock or a post-notification monitor reacquisition).
func isAcquire(op sim.Op) bool {
	return op.Kind == sim.OpLock || op.Kind == sim.OpWaitResume
}

// isSteerable reports whether the replayer may pause a thread before op
// to satisfy a Gs dependency: lock acquisitions always; loads when the
// graph carries value-flow vertices for them.
func isSteerable(op sim.Op) bool {
	return isAcquire(op) || op.Kind == sim.OpLoad
}

// Attempt performs one steered re-execution and returns its outcome.
// g is cloned; the caller's graph is not mutated.
func Attempt(f Factory, g *sdg.Graph, cycle *detect.Cycle, seed int64, maxSteps int) *sim.Outcome {
	return AttemptObserved(f, g, cycle, seed, maxSteps, Observer{})
}

// AttemptResult is the classified outcome of one steered attempt.
type AttemptResult struct {
	// Outcome is the raw run outcome.
	Outcome *sim.Outcome
	// Hit reports whether the run deadlocked at the recorded sites.
	Hit bool
	// Reason classifies a miss (DivergenceNone when Hit).
	Reason DivergenceReason
	// Forced counts force-releases (Algorithm 4 lines 5-7 firings).
	Forced int
	// Remaining is the number of Gs vertices never executed.
	Remaining int
	// PausedAtEnd counts cycle threads still held back when the run
	// stopped.
	PausedAtEnd int
	// Faults reports the scheduling perturbations injected into the run.
	Faults sim.FaultStats
}

// AttemptCtx performs one steered re-execution with cooperative
// cancellation and optional fault injection, and classifies the result.
// The context is checked at every scheduling point, so a cancellation
// (wolfd's per-job timeout, a client disconnect) aborts a single long
// attempt promptly instead of only between attempts.
func AttemptCtx(ctx context.Context, f Factory, g *sdg.Graph, cycle *detect.Cycle, seed int64, maxSteps int, faults sim.FaultConfig) AttemptResult {
	return attempt(ctx, f, g, cycle, seed, maxSteps, Observer{}, faults)
}

// cancelStrategy halts the run (Pick returns nil) once ctx is done,
// delegating to inner otherwise. Sim scheduling points are dominated by
// channel handoffs, so the per-pick Err check is noise.
type cancelStrategy struct {
	ctx   context.Context
	inner sim.Strategy
}

// Pick implements sim.Strategy.
func (c *cancelStrategy) Pick(w *sim.World, enabled []*sim.Thread) *sim.Thread {
	if c.ctx.Err() != nil {
		return nil
	}
	return c.inner.Pick(w, enabled)
}

// Observer wires observability into one replay attempt.
type Observer struct {
	// Timeline, when non-nil, receives the replayer's steering decisions
	// (pause slices and force-release markers) on the thread tracks of
	// Pid, timestamped with the sim step counter.
	Timeline *obs.Timeline
	// Pid is the trace-event process the markers belong to (the caller
	// puts the executed-operation tracks of the same run under the same
	// pid).
	Pid int64
	// Listeners are appended to the run's listener list, after the
	// steering strategy — a timeline listener here sees events with the
	// same step clock the markers use.
	Listeners []sim.Listener
}

// AttemptObserved is Attempt with steering markers and extra listeners;
// see Observer. Any pause slice still open when the run stops (a thread
// held back right into the deadlock) is closed at the final step so the
// exported timeline stays balanced.
func AttemptObserved(f Factory, g *sdg.Graph, cycle *detect.Cycle, seed int64, maxSteps int, o Observer) *sim.Outcome {
	return attempt(context.Background(), f, g, cycle, seed, maxSteps, o, sim.FaultConfig{}).Outcome
}

// attempt is the shared body of Attempt, AttemptObserved and AttemptCtx:
// one steered re-execution under ctx, with optional fault injection and
// observability, classified.
func attempt(ctx context.Context, f Factory, g *sdg.Graph, cycle *detect.Cycle, seed int64, maxSteps int, o Observer, faults sim.FaultConfig) AttemptResult {
	prog, opts := f()
	st := &strategy{
		g:       g.Clone(),
		inCycle: make(map[string]bool, len(cycle.Tuples)),
		rng:     sim.NewRand(seed),
		occ:     make(map[string]map[string]int),
		tl:      o.Timeline,
		tlPid:   o.Pid,
		paused:  make(map[string]bool),
		tids:    make(map[string]int64),
	}
	for _, tp := range cycle.Tuples {
		st.inCycle[tp.Thread] = true
	}
	opts.Listeners = append(opts.Listeners, st)
	opts.Listeners = append(opts.Listeners, o.Listeners...)
	if maxSteps > 0 {
		opts.MaxSteps = maxSteps
	}
	// Strategy stack, outermost first: cancellation check, then Gs
	// steering. The fault injector plugs in *below* steering as the final
	// chooser among allowed threads: perturbations (stalls, delayed
	// grants, preemptions) reorder what steering permits and spurious
	// wakeups mutate wait sets, but a paused thread stays paused — the
	// same contract a real replayer enforces by keeping steered threads
	// blocked in instrumentation.
	var inj *sim.Injector
	if faults.Enabled() {
		inj = sim.NewInjector(sim.NewRandomStrategy(seed), faults)
		st.inner = inj
	}
	var top sim.Strategy = st
	if ctx.Done() != nil {
		top = &cancelStrategy{ctx: ctx, inner: top}
	}
	out := sim.Run(prog, top, opts)
	if st.tl != nil {
		// Deterministic close order so exports are golden-testable.
		var open []string
		for name, isPaused := range st.paused {
			if isPaused {
				open = append(open, name)
			}
		}
		sort.Strings(open)
		for _, name := range open {
			st.tl.End(st.tlPid, st.tids[name], int64(out.Steps))
		}
	}
	res := AttemptResult{
		Outcome:     out,
		Hit:         Hit(out, cycle),
		Forced:      st.forced,
		Remaining:   st.g.Size(),
		PausedAtEnd: st.pausedCount(),
	}
	if inj != nil {
		res.Faults = inj.Stats()
	}
	res.Reason = classify(out, res.Hit, res.Forced, res.Remaining, res.PausedAtEnd)
	return res
}

// Hit reports whether out reproduced the cycle: the run deadlocked and
// for every deadlocking acquisition of the cycle a distinct thread is
// blocked acquiring the same lock from the same source location (the
// paper's hit criterion — deadlocking "at the exact location"; a
// deadlock at other sites is not a hit).
func Hit(out *sim.Outcome, cycle *detect.Cycle) bool {
	if !out.Deadlocked() {
		return false
	}
	type need struct{ site, lock string }
	avail := make(map[need]int)
	for _, b := range out.Blocked {
		if b.Op.Kind == sim.OpLock {
			avail[need{b.Op.Site, b.Op.Lock.Name()}]++
		}
	}
	for _, tp := range cycle.Tuples {
		k := need{tp.Site, tp.Lock}
		if avail[k] == 0 {
			return false
		}
		avail[k]--
	}
	return true
}

// Reproduce runs up to cfg.Attempts steered executions, stopping at the
// first hit.
func Reproduce(f Factory, g *sdg.Graph, cycle *detect.Cycle, cfg Config) Result {
	return ReproduceCtx(context.Background(), f, g, cycle, cfg)
}

// FallbackAttempt performs one PCT-randomized confirmation run — the
// DeadlockFuzzer-like pass the hardened replayer degrades to when
// precise Gs steering keeps diverging. Depth follows the cycle size (a
// k-thread deadlock needs k-1 well-placed priority changes);
// expectedSteps should approximate the program's run length so PCT's
// priority-change points actually land inside the run (ReproduceCtx
// feeds back the observed step count of earlier attempts; 1024 when
// zero).
func FallbackAttempt(ctx context.Context, f Factory, cycle *detect.Cycle, seed int64, maxSteps, expectedSteps int, faults sim.FaultConfig) (*sim.Outcome, bool) {
	prog, opts := f()
	if maxSteps > 0 {
		opts.MaxSteps = maxSteps
	}
	depth := len(cycle.Tuples)
	if expectedSteps <= 0 {
		expectedSteps = 1024
	}
	var top sim.Strategy = sim.NewPCTStrategy(seed, depth, expectedSteps)
	if faults.Enabled() {
		top = sim.NewInjector(top, faults)
	}
	if ctx.Done() != nil {
		top = &cancelStrategy{ctx: ctx, inner: top}
	}
	out := sim.Run(prog, top, opts)
	return out, Hit(out, cycle)
}

// ReproduceCtx is Reproduce hardened with divergence-aware retry: every
// failed steered attempt is classified (see DivergenceReason), the step
// budget escalates (doubling, capped) when the budget itself was the
// problem, seeds rotate between attempts, and once every
// steered attempt has diverged the replayer degrades to a
// PCT-randomized confirmation pass so the Result distinguishes
// confirmed-by-steering, confirmed-by-fallback and unreproduced — the
// latter always carrying a non-empty divergence histogram. When ctx
// carries an obs.Recorder, every re-execution emits a "replay.attempt"
// span recording its step count, whether it hit, and the divergence
// reason of a miss. Cancellation is honored at every scheduling point,
// not just between attempts.
func ReproduceCtx(ctx context.Context, f Factory, g *sdg.Graph, cycle *detect.Cycle, cfg Config) Result {
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	res := Result{Divergence: make(Divergence)}
	maxSteps := cfg.MaxSteps
	escalations := 0
	for i := 0; i < attempts; i++ {
		_, sp := obs.Start(ctx, "replay.attempt")
		ar := AttemptCtx(ctx, f, g, cycle, cfg.BaseSeed+int64(i), maxSteps, cfg.Faults)
		res.Attempts++
		res.LastOutcome = ar.Outcome
		res.Faults = addFaultStats(res.Faults, ar.Faults)
		if sp != nil {
			sp.Add("steps", int64(ar.Outcome.Steps))
			if ar.Hit {
				sp.Add("hit", 1)
			} else {
				sp.Add("divergence."+ar.Reason.String(), 1)
			}
			sp.End()
		}
		if ar.Hit {
			res.Reproduced = true
			res.Hits++
			res.Method = MethodSteering
			return res
		}
		res.Divergence.Add(ar.Reason)
		if ar.Reason == DivergenceCancelled || ctx.Err() != nil {
			return res
		}
		// Budget escalation: when the run ran out of steps (whether plainly
		// too long or starved into the limit), retrying at the same budget
		// with a fresh seed rarely helps — double it, capped.
		if ar.Outcome.Kind == sim.StepLimit && escalations < maxStepEscalation {
			if maxSteps <= 0 {
				maxSteps = sim.DefaultMaxSteps
			}
			maxSteps *= 2
			escalations++
		}
	}

	// Degraded mode: precise steering keeps diverging, so mirror the
	// paper's DeadlockFuzzer baseline — randomized PCT runs checked
	// against the same hit criterion. The observed length of earlier runs
	// calibrates where PCT places its priority-change points.
	expected := 0
	if res.LastOutcome != nil {
		expected = res.LastOutcome.Steps
	}
	for i := 0; i < cfg.fallbackAttempts(); i++ {
		if ctx.Err() != nil {
			return res
		}
		_, sp := obs.Start(ctx, "replay.fallback")
		out, hit := FallbackAttempt(ctx, f, cycle,
			cfg.BaseSeed+int64(attempts+i), maxSteps, expected, cfg.Faults)
		res.FallbackAttempts++
		res.LastOutcome = out
		if out.Steps > expected {
			expected = out.Steps
		}
		if sp != nil {
			sp.Add("steps", int64(out.Steps))
			if hit {
				sp.Add("hit", 1)
			}
			sp.End()
		}
		if hit {
			res.Reproduced = true
			res.Hits++
			res.Method = MethodFallback
			return res
		}
	}
	return res
}

// addFaultStats sums two fault-stat records.
func addFaultStats(a, b sim.FaultStats) sim.FaultStats {
	a.Preemptions += b.Preemptions
	a.Stalls += b.Stalls
	a.Wakeups += b.Wakeups
	a.DelayedGrants += b.DelayedGrants
	return a
}

// HitRate runs exactly runs attempts without early exit and returns the
// fraction that reproduced the cycle — the paper's Figure 8 statistic
// (hit rate over 100 runs per potential deadlock).
func HitRate(f Factory, g *sdg.Graph, cycle *detect.Cycle, runs int, cfg Config) float64 {
	if runs <= 0 {
		return 0
	}
	hits := 0
	for i := 0; i < runs; i++ {
		out := Attempt(f, g, cycle, cfg.BaseSeed+int64(i), cfg.MaxSteps)
		if Hit(out, cycle) {
			hits++
		}
	}
	return float64(hits) / float64(runs)
}
