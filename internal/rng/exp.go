package rng

import "math"

// The exponential ziggurat of Marsaglia and Tsang, "The Ziggurat Method
// for Generating Random Variables", J. Stat. Softw. 5(8), 2000, with 256
// layers: the region under e^-x is cut into 255 stacked rectangles of
// equal area v plus a base strip of area v that holds the tail beyond
// zigR. A draw picks a layer uniformly, then a point in it; the point is
// accepted outright when it lies under the layer above (≈99% of draws),
// and otherwise is tested against the curve or, in the base strip,
// replaced by a tail draw.
//
// One Uint64 serves both choices: the layer is its low 8 bits and the
// position its high 53 bits, so the two are independent (the original's
// reuse of the layer bits in the position is a known flaw).
const (
	zigR = 7.69711747013104972  // right edge of the top of the base strip
	zigV = 3.949659822581572e-3 // area of every layer
	zigM = 1 << 53              // scale of the 53-bit position
)

var (
	zigK [256]uint64  // accept position j of layer i outright when j < zigK[i]
	zigW [256]float64 // x = j · zigW[i]
	zigF [256]float64 // e^-x at layer i's right edge (zigF[0] = 1 tops the stack)
)

func init() {
	// Layer 255 is the rectangle of width zigR on the base strip; each
	// layer i below it, going up, has right edge x_i with
	// x_i (e^-x_{i-1} - e^-x_i) = zigV. Layer 0 is the base strip itself,
	// of width zigV/e^-zigR: its part past zigR stands for the tail.
	q := zigV / math.Exp(-zigR)
	zigK[0] = uint64(zigR / q * zigM)
	zigW[0] = q / zigM
	zigW[255] = zigR / zigM
	zigF[0] = 1
	zigF[255] = math.Exp(-zigR)
	x, prev := zigR, zigR
	for i := 254; i >= 1; i-- {
		x = -math.Log(zigV/x + math.Exp(-x))
		zigK[i+1] = uint64(x / prev * zigM)
		prev = x
		zigF[i] = math.Exp(-x)
		zigW[i] = x / zigM
	}
	// zigK[1] = 0: the top layer has no layer above it, so its draws are
	// always tested against the curve.
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), drawn by the 256-layer ziggurat above. Its output sequence
// for a seed is part of the engine's randomness contract: change it and
// every lane-engine estimate changes.
func (r *RNG) ExpFloat64() float64 {
	s, u := r.Next()
	x, ok := ExpFast(u)
	if !ok {
		s, x = s.ExpSlow(u)
	}
	*r = s
	return x
}

// ExpFast is ExpFloat64's accepted-outright path, split out so that it
// inlines into a caller stepping its generator with Next: given the
// draw's first Uint64 u, it returns the draw and true when the ziggurat
// accepts u outright (≈99% of draws), and false when the draw must go on
// with ExpSlow(u).
func ExpFast(u uint64) (float64, bool) {
	i, j := u&0xff, u>>11
	return float64(j) * zigW[i], j < zigK[i]
}

// ExpSlow finishes an ExpFloat64 draw whose first Uint64 u ExpFast did
// not accept, drawing any further bits from r as ExpFloat64 does, and
// returns the generator's state after the draw and the draw.
func (r RNG) ExpSlow(u uint64) (RNG, float64) {
	for {
		i, j := u&0xff, u>>11
		x := float64(j) * zigW[i]
		if j < zigK[i] {
			return r, x
		}
		var v uint64
		r, v = r.Next()
		if i == 0 {
			// The tail beyond zigR is zigR plus a fresh Exp(1); 1 - U
			// lies in (0, 1], so the log is finite.
			return r, zigR - math.Log(1-unit(v))
		}
		if zigF[i]+unit(v)*(zigF[i-1]-zigF[i]) < math.Exp(-x) {
			return r, x
		}
		r, u = r.Next()
	}
}
