package sim

import (
	"math"
	"math/rand"
	"testing"
)

// randDraws exceeds two full turns of the 607-word register, so every
// word is read both as built lazily and after the register exists.
const randDraws = 2*rngLen + 50

// randSeeds are the seeds NewRand must match math/rand on: the zero
// seed and its substitute, values around the 2^31-1 modulus and its
// multiples, the int64 extremes, and 300 seeds drawn at random.
func randSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, 5 * int32max,
		int32max - 1, int32max + 1, -int32max + 1, -int32max - 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt64 / int32max * int32max, math.MinInt64 / int32max * int32max,
		math.MaxInt32, math.MinInt32,
	}
	g := rand.New(rand.NewSource(20140215))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

// randDraw is one way of consuming a stream.
type randDraw struct {
	name string
	draw func(r *rand.Rand) []int64
}

var randDrawKinds = []randDraw{
	{"Int63", func(r *rand.Rand) []int64 { return []int64{r.Int63()} }},
	{"Uint64", func(r *rand.Rand) []int64 { return []int64{int64(r.Uint64())} }},
	{"Intn", func(r *rand.Rand) []int64 {
		return []int64{int64(r.Intn(7)), int64(r.Intn(64)), int64(r.Intn(1 << 40)), int64(r.Intn(1<<31 - 1))}
	}},
	{"Float64", func(r *rand.Rand) []int64 { return []int64{int64(math.Float64bits(r.Float64()))} }},
	{"Perm", func(r *rand.Rand) []int64 {
		var out []int64
		for _, v := range r.Perm(9) {
			out = append(out, int64(v))
		}
		return out
	}},
	{"Shuffle", func(r *rand.Rand) []int64 {
		xs := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}},
}

// sameStream fails t unless got and want yield the same values for n
// rounds of kind.
func sameStream(t *testing.T, seed int64, kind randDraw, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		g, w := kind.draw(got), kind.draw(want)
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("seed %d: %s draw %d: NewRand gave %v, math/rand %v", seed, kind.name, i, g, w)
			}
		}
	}
}

func TestNewRandMatchesMathRand(t *testing.T) {
	for _, kind := range randDrawKinds {
		t.Run(kind.name, func(t *testing.T) {
			for _, seed := range randSeeds() {
				sameStream(t, seed, kind, NewRand(seed), rand.New(rand.NewSource(seed)), randDraws)
			}
		})
	}
}

// TestNewRandReseed re-seeds mid-stream, before and after the register
// is built, and checks the new stream matches math/rand's from its
// first draw.
func TestNewRandReseed(t *testing.T) {
	for _, drawn := range []int{0, 1, rngTap - 1, rngTap, rngTap + 1, rngLen, 3 * rngLen} {
		got, want := NewRand(7), rand.New(rand.NewSource(7))
		for i := 0; i < drawn; i++ {
			got.Uint64()
			want.Uint64()
		}
		for _, seed := range []int64{7, 0, -3, math.MinInt64, 89482311} {
			got.Seed(seed)
			want.Seed(seed)
			sameStream(t, seed, randDrawKinds[0], got, want, randDraws)
		}
	}
}

// TestNewRandMixed interleaves every kind of draw on one stream, so
// the multi-draw methods straddle the point where the register is
// built.
func TestNewRandMixed(t *testing.T) {
	for _, seed := range randSeeds()[:40] {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < randDraws; i++ {
			sameStream(t, seed, randDrawKinds[i%len(randDrawKinds)], got, want, 1)
		}
	}
}

func FuzzNewRand(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(-1), uint16(rngTap+1))
	f.Add(int64(math.MinInt64), uint16(2*rngLen))
	f.Add(int64(int32max), uint16(rngLen))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		sameStream(t, seed, randDrawKinds[1], NewRand(seed), rand.New(rand.NewSource(seed)), int(n))
	})
}
