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
// of xoshiro).
type RNG struct {
	s [4]uint64
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
	for i := range r.s {
		r.s[i] = SplitMix(seed, uint64(i))
	}
}

// Uint64 returns the next 64 uniformly random bits. It works on locals
// and stores the state once, which keeps it within the compiler's
// inlining budget: the engines call it once per fault and per skip.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9

	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}

	return result
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits scaled by 2^-53: the standard unbiased construction.
	return float64(r.Uint64()>>11) * 0x1p-53
}

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
