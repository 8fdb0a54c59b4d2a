package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// FaultKind is a bitmask selecting which scheduling perturbations an
// Injector may apply. Faults model the adversarial conditions a real
// scheduler imposes on a steered re-execution — preemptions, descheduled
// threads, spurious monitor wakeups, slow lock hand-offs — so the
// pipeline's confirmation claim can be exercised under schedule noise
// rather than only on the cooperative schedules the replayer prefers.
type FaultKind uint8

const (
	// FaultPreempt overrides the base strategy's pick with a uniformly
	// random enabled thread, modeling an involuntary context switch.
	FaultPreempt FaultKind = 1 << iota
	// FaultStall freezes one thread for a few scheduling points, modeling
	// a descheduled or page-faulting thread.
	FaultStall
	// FaultWakeup spuriously wakes one thread from a monitor wait set
	// without a notification — the wakeup Java explicitly permits and
	// condition loops must tolerate.
	FaultWakeup
	// FaultDelayGrant hides a thread that is about to acquire a lock from
	// the base strategy for one scheduling point, modeling a slow lock
	// hand-off.
	FaultDelayGrant

	// FaultAll enables every fault kind.
	FaultAll = FaultPreempt | FaultStall | FaultWakeup | FaultDelayGrant
)

// faultNames orders the kinds for rendering and parsing.
var faultNames = []struct {
	kind FaultKind
	name string
}{
	{FaultPreempt, "preempt"},
	{FaultStall, "stall"},
	{FaultWakeup, "wakeup"},
	{FaultDelayGrant, "delay"},
}

// String renders the mask as "preempt+stall+wakeup+delay".
func (k FaultKind) String() string {
	if k == 0 {
		return "none"
	}
	var parts []string
	for _, fn := range faultNames {
		if k&fn.kind != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, "+")
}

// DefaultMaxStall bounds a single injected stall (in scheduling points)
// when FaultConfig.MaxStall is zero.
const DefaultMaxStall = 8

// FaultConfig parameterizes an Injector. The zero value injects nothing;
// any configuration is fully reproducible from (Seed, Rate, Kinds).
type FaultConfig struct {
	// Seed seeds the injector's private randomness.
	Seed int64
	// Rate is the per-scheduling-point probability of each enabled fault
	// kind firing independently; 0 disables injection entirely.
	Rate float64
	// Kinds selects the perturbations to inject; FaultAll when zero.
	Kinds FaultKind
	// MaxStall bounds one stall's length in scheduling points
	// (DefaultMaxStall when zero).
	MaxStall int
}

// Enabled reports whether the configuration injects anything.
func (c FaultConfig) Enabled() bool { return c.Rate > 0 }

// kinds returns the effective kind mask.
func (c FaultConfig) kinds() FaultKind {
	if c.Kinds == 0 {
		return FaultAll
	}
	return c.Kinds
}

// maxStall returns the effective stall bound.
func (c FaultConfig) maxStall() int {
	if c.MaxStall <= 0 {
		return DefaultMaxStall
	}
	return c.MaxStall
}

// String renders the configuration in the -faults flag syntax.
func (c FaultConfig) String() string {
	if !c.Enabled() {
		return "off"
	}
	s := fmt.Sprintf("rate=%g,seed=%d", c.Rate, c.Seed)
	if c.Kinds != 0 && c.Kinds != FaultAll {
		s += ",kinds=" + c.Kinds.String()
	}
	if c.MaxStall > 0 {
		s += ",stall=" + strconv.Itoa(c.MaxStall)
	}
	return s
}

// ParseFaultSpec parses the "rate=0.1,seed=7[,kinds=preempt+stall]
// [,stall=8]" syntax of the wolf -faults flag into a FaultConfig.
// An empty spec returns the zero (disabled) configuration.
func ParseFaultSpec(spec string) (FaultConfig, error) {
	var cfg FaultConfig
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return cfg, fmt.Errorf("sim: fault spec field %q is not key=value", field)
		}
		switch key {
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r < 0 || r > 1 {
				return cfg, fmt.Errorf("sim: fault rate %q must be a number in [0,1]", val)
			}
			cfg.Rate = r
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("sim: fault seed %q: %v", val, err)
			}
			cfg.Seed = s
		case "stall":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("sim: fault stall bound %q must be a positive integer", val)
			}
			cfg.MaxStall = n
		case "kinds":
			var mask FaultKind
			for _, name := range strings.Split(val, "+") {
				found := false
				for _, fn := range faultNames {
					if fn.name == name {
						mask |= fn.kind
						found = true
					}
				}
				if name == "all" {
					mask = FaultAll
					found = true
				}
				if !found {
					return cfg, fmt.Errorf("sim: unknown fault kind %q (want preempt, stall, wakeup, delay or all)", name)
				}
			}
			cfg.Kinds = mask
		default:
			return cfg, fmt.Errorf("sim: unknown fault spec key %q", key)
		}
	}
	return cfg, nil
}

// FaultStats counts the perturbations an Injector actually applied.
type FaultStats struct {
	// Preemptions counts overridden scheduling decisions.
	Preemptions int
	// Stalls counts stall windows started (not stalled steps).
	Stalls int
	// Wakeups counts spurious monitor wakeups.
	Wakeups int
	// DelayedGrants counts acquisitions hidden from the base strategy.
	DelayedGrants int
}

// Total is the number of injected faults of any kind.
func (s FaultStats) Total() int {
	return s.Preemptions + s.Stalls + s.Wakeups + s.DelayedGrants
}

// String renders nonzero counts compactly.
func (s FaultStats) String() string {
	return fmt.Sprintf("preempt=%d stall=%d wakeup=%d delay=%d",
		s.Preemptions, s.Stalls, s.Wakeups, s.DelayedGrants)
}

// Injector wraps a scheduling strategy with deterministic fault
// injection. Every scheduling point it may, independently per enabled
// kind with probability Rate: spuriously wake a monitor waiter, start a
// stall window on a thread, hide an acquiring thread from the base
// strategy for one decision, or preempt the base strategy's choice with
// a random thread. The same (base strategy, program, FaultConfig) always
// produces the same schedule; the injector never deadlocks a live run by
// itself because filtering falls back to the full enabled set whenever
// it would leave the base strategy nothing to pick.
type Injector struct {
	base    Strategy
	cfg     FaultConfig
	kinds   FaultKind
	rng     *rand.Rand
	stalled map[ThreadID]int
	stats   FaultStats
}

// NewInjector wraps base with fault injection under cfg. A disabled
// configuration yields a pass-through injector.
func NewInjector(base Strategy, cfg FaultConfig) *Injector {
	if base == nil {
		panic("sim: NewInjector(nil base strategy)")
	}
	return &Injector{
		base:    base,
		cfg:     cfg,
		kinds:   cfg.kinds(),
		rng:     NewRand(cfg.Seed),
		stalled: make(map[ThreadID]int),
	}
}

// Stats returns the perturbation counts so far.
func (in *Injector) Stats() FaultStats { return in.stats }

// fire flips one deterministic coin for an enabled kind.
func (in *Injector) fire(k FaultKind) bool {
	return in.kinds&k != 0 && in.rng.Float64() < in.cfg.Rate
}

// Pick applies the configured perturbations, then delegates to the base
// strategy on the (possibly filtered) enabled set. A nil pick from the
// base strategy — a halt request — passes through untouched.
func (in *Injector) Pick(w *World, enabled []*Thread) *Thread {
	if !in.cfg.Enabled() {
		return in.base.Pick(w, enabled)
	}

	// Spurious wakeup: move one random waiter out of a wait set without a
	// notification. The thread becomes schedulable once its monitor is
	// free, exactly as after a real notify.
	if in.fire(FaultWakeup) {
		in.spuriousWakeup(w)
	}

	// Stall bookkeeping: expire windows, then maybe start a new one.
	for _, t := range enabled {
		if in.stalled[t.ID()] > 0 {
			in.stalled[t.ID()]--
		}
	}
	if in.fire(FaultStall) {
		victim := enabled[in.rng.Intn(len(enabled))]
		if in.stalled[victim.ID()] == 0 {
			in.stalled[victim.ID()] = 1 + in.rng.Intn(in.cfg.maxStall())
			in.stats.Stalls++
		}
	}

	// Filter the enabled set: stalled threads are invisible, and a delay
	// grant hides one random pending acquisition for this decision.
	candidates := make([]*Thread, 0, len(enabled))
	for _, t := range enabled {
		if in.stalled[t.ID()] > 0 {
			continue
		}
		candidates = append(candidates, t)
	}
	if in.fire(FaultDelayGrant) {
		var acquiring []int
		for i, t := range candidates {
			if k := t.Pending().Kind; k == OpLock || k == OpWaitResume {
				acquiring = append(acquiring, i)
			}
		}
		if len(acquiring) > 0 {
			i := acquiring[in.rng.Intn(len(acquiring))]
			candidates = append(candidates[:i], candidates[i+1:]...)
			in.stats.DelayedGrants++
		}
	}
	// Never starve the run: if filtering emptied the set, schedule from
	// the full enabled list (stalls and delays are best-effort noise).
	if len(candidates) == 0 {
		candidates = enabled
	}

	if in.fire(FaultPreempt) {
		in.stats.Preemptions++
		return candidates[in.rng.Intn(len(candidates))]
	}
	return in.base.Pick(w, candidates)
}

// spuriousWakeup marks one random waiting thread notified, removing it
// from its monitor's wait set. Deterministic: locks are scanned in
// creation order and the victim is drawn from the injector's seeded rng.
func (in *Injector) spuriousWakeup(w *World) {
	type waiter struct {
		l *Lock
		i int
	}
	var waiters []waiter
	for _, l := range w.locks {
		for i := range l.waitSet {
			waiters = append(waiters, waiter{l, i})
		}
	}
	if len(waiters) == 0 {
		return
	}
	pick := waiters[in.rng.Intn(len(waiters))]
	l, i := pick.l, pick.i
	t := l.waitSet[i]
	l.waitSet = append(l.waitSet[:i:i], l.waitSet[i+1:]...)
	t.notified = true
	in.stats.Wakeups++
}
