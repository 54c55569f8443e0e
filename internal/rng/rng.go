// Package rng provides a small, fast, deterministic pseudo-random number
// generator for Monte Carlo simulation.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by the xoshiro authors. It is not cryptographically secure; it
// is built for reproducible, high-throughput fault sampling. Independent
// streams are addressed, not stepped to: SplitMix(seed, i) is the seed of
// substream i, so a Monte Carlo harness can hand trial block i its own
// generator whichever worker runs it.
package rng

import "math/bits"

// RNG is a xoshiro256** generator. It must be created with New or reset
// with Seed; the zero value is invalid (an all-zero state is a fixed point
// of xoshiro). Its state is four scalar fields rather than an array so
// that a loop holding an RNG value in a local (see Next) keeps it in
// registers.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// Mix64 is the SplitMix64 finalizer: a full-avalanche scrambler that turns
// structured nearby inputs (consecutive indices, close float bit patterns)
// into well-separated values.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SplitMix returns output i (counting from 0) of the SplitMix64 generator
// seeded with seed, Mix64(seed + (i+1)·γ): the seed of substream i,
// computed directly rather than by stepping through the ones before it.
func SplitMix(seed, i uint64) uint64 { return Mix64(seed + (i+1)*golden) }

// New returns a generator deterministically seeded from seed; see Seed.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Seed resets r in place to the state New(seed) returns, without
// allocating. Distinct seeds yield well-separated states: the four state
// words are the first four SplitMix64 outputs of seed, which guarantees a
// non-zero state.
func (r *RNG) Seed(seed uint64) {
	*r = RNG{SplitMix(seed, 0), SplitMix(seed, 1), SplitMix(seed, 2), SplitMix(seed, 3)}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	var x uint64
	*r, x = r.Next()
	return x
}

// Next is Uint64 by value: it returns the generator's state after one
// step and the step's 64 random bits, leaving r as it was. It inlines, so
// a loop that keeps its generator in a local and steps it with Next (and
// ExpFast, falling back to ExpSlow) holds the state in registers and
// stores it once, at the end.
func (r RNG) Next() (RNG, uint64) {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ r.s1
	return RNG{r.s0 ^ s3, r.s1 ^ s2, s2 ^ t, bits.RotateLeft64(s3, 45)}, result
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to a uniform float64 in [0, 1): the 53 high
// bits scaled by 2^-53, the standard unbiased construction.
func unit(u uint64) float64 { return float64(u>>11) * 0x1p-53 }

// Bool returns true with probability p. Probabilities outside [0, 1] clamp to
// always-false / always-true.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Bits returns n uniformly random bits in the low bits of the result.
// It panics unless 0 <= n <= 64.
func (r *RNG) Bits(n int) uint64 {
	switch {
	case n < 0 || n > 64:
		panic("rng: Bits count out of range")
	case n == 0:
		return 0
	case n == 64:
		return r.Uint64()
	default:
		return r.Uint64() >> (64 - uint(n))
	}
}

// Perm returns a uniformly random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
