package sim

import "math/rand"

// Constants of math/rand's additive lagged-Fibonacci generator.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedMul is the multiplier of math/rand's Lehmer seeding chain
	// x[n+1] = seedMul * x[n] mod int32max.
	seedMul = 48271
	// seedSkip is the index of the first chain value Seed uses; it
	// discards x[1] to x[20].
	seedSkip = 21
)

// seedPow[j] is seedMul^(seedSkip+j) mod int32max: register word i is
// built from chain values x0*seedPow[3i+k], k = 0, 1, 2.
var seedPow = func() (p [3 * rngLen]uint64) {
	x := uint64(1)
	for i := 0; i < seedSkip; i++ {
		x = mulmod(x, seedMul)
	}
	for j := range p {
		p[j] = x
		x = mulmod(x, seedMul)
	}
	return p
}()

// mulmod returns a*b mod 2^31-1 for a, b < 2^31, folding the product's
// high bits onto its low bits (2^31 ≡ 1).
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// NewRand returns a random source whose every draw equals that of
// rand.New(rand.NewSource(seed)), re-seeding through Seed included.
// Every seeded draw in a simulated run comes from it: the random
// scheduler, PCT, fault injection, Thread.Rand, and the replay and
// DeadlockFuzzer strategies. Its streams must stay math/rand's: tests
// pin seeds, and the paper campaign's detection-seed search depends on
// them.
//
// NewRand skips math/rand's eager seeding, which walks a 1,841-step
// chain to fill a 607-word register on every call: the first 273 draws
// compute the two words they read straight from the seed, and the
// register is built only if the run draws more. A short simulated run
// therefore costs neither the chain nor the 5 KB register.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// lazySource is math/rand's rngSource with lazy seeding. Draw n
// (1-based) adds register words feed = 334-n and tap = 607-n and stores
// the sum at feed. For n <= 273 neither word has been written yet, so
// both are pure functions of the seed, and so is every sum stored: the
// register can be rebuilt from the seed alone at draw 274.
type lazySource struct {
	x0        uint64 // seed reduced as math/rand reduces it, in [1, 2^31-2]
	tap, feed int
	n         int            // draws since seeding, counted up to rngTap+1
	vec       *[rngLen]int64 // the register, once built
}

// Seed resets the source to the start of seed's stream.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.n = 0
}

// word returns register word i as math/rand's Seed leaves it.
func (s *lazySource) word(i int) int64 {
	p := seedPow[3*i : 3*i+3]
	u := mulmod(s.x0, p[0])<<40 ^ mulmod(s.x0, p[1])<<20 ^ mulmod(s.x0, p[2])
	return int64(u) ^ rngCooked[i]
}

// build materializes the register as it stands after rngTap draws.
func (s *lazySource) build() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	// Draw n stored word(334-n)+word(607-n) at 334-n.
	for i := rngLen - 2*rngTap; i < rngLen-rngTap; i++ {
		s.vec[i] += s.vec[i+rngTap]
	}
}

// Uint64 returns the next value of the stream.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n <= rngTap {
		s.n++
		if s.n <= rngTap {
			return uint64(s.word(s.feed) + s.word(s.tap))
		}
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
