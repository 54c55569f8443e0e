package lanes

// The count-first producer of compacted batches. A caller that walks only
// the lanes holding at least d faults on live points (the lane audit's
// certified d: a lane with fewer cannot fail) needs those lanes' faults
// and nothing else. A lane's live-fault count is K = Σ_s K_s, where
// K_s ~ Binom(n_s, p_s) counts the faults on sampler s's n_s live points,
// and given K_s the faulted points are a uniform K_s-subset of them. So
// Tail draws, per block:
//
//   - the selected lanes, each independently with q = P(K ≥ d), as
//     geometric gaps at q;
//   - each selected lane's K from the law of K given K ≥ d;
//   - its split (K_0, K_1, …) across samplers from their law given the
//     sum, one sampler at a time: P(K_s = j | K_s + rest = k) ∝
//     P(K_s = j)·P(rest = k − j), rest being the later samplers' sum;
//   - K_s distinct live points of sampler s, uniformly (Floyd's
//     algorithm), and a uniform 3-bit replacement for each.
//
// That is the law of the geometric producer's faults on a lane's live
// points, restricted to the lanes holding at least d of them; the faults
// on dead points, which reach no decoded wire, are not drawn at all.
// Draws scale with the selected lanes, not with the block.

import (
	"fmt"
	"math"

	"revft/internal/rng"
)

// Tail is a program's count-first producer for lanes holding at least d
// live faults. It is immutable and safe for concurrent use.
type Tail struct {
	d        int
	q        float64 // WalkedFraction(d)
	invRate  float64 // λ⁻¹ of the lane gaps at q; see geomGap
	pmf      []float64
	tail     []float64 // tail[k] = P(K ≥ k), summed from the top; tail[len(pmf)] = 0
	samplers []tailSampler
}

// tailSampler is one sampler's live points and count law.
type tailSampler struct {
	pts   []int32
	binom []float64 // binom[j] = P(K_s = j)
	rest  []float64 // the law of the later samplers' count; nil for the last
}

// Tail builds the count-first producer of lanes holding at least d ≥ 1
// live faults: O(live points) work for a one-sampler program, plus a
// convolution per further sampler. Programs compile without one; a
// caller builds it once per program and d.
func (p *WideProgram) Tail(d int) *Tail {
	if d < 1 {
		panic(fmt.Sprintf("lanes: Tail needs d ≥ 1, got %d", d))
	}
	t := &Tail{d: d, q: p.WalkedFraction(d), pmf: []float64{1}}
	for _, s := range p.samplers {
		var pts []int32
		for _, pt := range s.points {
			if pt&liveBit != 0 {
				pts = append(pts, int32(pt&^liveBit))
			}
		}
		if len(pts) > 0 {
			t.samplers = append(t.samplers, tailSampler{pts: pts, binom: binomial(len(pts), s.p)})
		}
	}
	// The suffix laws, last sampler first; the first one's is K's.
	for i := len(t.samplers) - 1; i >= 0; i-- {
		s := &t.samplers[i]
		if i < len(t.samplers)-1 {
			s.rest = t.pmf
		}
		t.pmf = convolve(s.binom, t.pmf)
	}
	t.tail = make([]float64, len(t.pmf)+1)
	for k := len(t.pmf) - 1; k >= 0; k-- {
		t.tail[k] = t.tail[k+1] + t.pmf[k]
	}
	switch {
	case t.q >= 1:
		t.invRate = 0
	case t.q > 0:
		t.invRate = -1 / math.Log1p(-t.q)
	}
	return t
}

// D returns the fault count the producer's lanes hold at least.
func (t *Tail) D() int { return t.d }

// Fraction returns q, the probability that a lane holds at least d live
// faults: the share of lanes the producer selects.
func (t *Tail) Fraction() float64 { return t.q }

// Gap draws the number of lanes before the next selected one, a
// Geometric(q) count; maxGeomGap, with no draw, when q = 0.
func (t *Tail) Gap(r *rng.RNG) int64 {
	if t.q == 0 {
		return maxGeomGap
	}
	return geomGap(r, t.invRate)
}

// Count draws a selected lane's live-fault count from the law of K
// given K ≥ d: the largest k whose tail P(K ≥ k) exceeds a uniform draw
// from [0, P(K ≥ d)), so K = k with probability P(K = k)/P(K ≥ d).
func (t *Tail) Count(r *rng.RNG) int {
	v := r.Float64() * t.tail[t.d]
	k := t.d
	for t.tail[k+1] > v {
		k++
	}
	return k
}

// Head draws a live-fault count from the law of K given K < d, the law
// of the lanes the producer skips.
func (t *Tail) Head(r *rng.RNG) int {
	head := 0.0
	for _, x := range t.pmf[:min(t.d, len(t.pmf))] {
		head += x
	}
	v := r.Float64() * head
	k := 0
	for ; k < min(t.d, len(t.pmf))-1; k++ {
		if v < t.pmf[k] {
			break
		}
		v -= t.pmf[k]
	}
	return k
}

// Faults appends the k live faults of one lane to dst, each with Lane
// set to lane: k split across the samplers by their law given the sum,
// that many distinct live points drawn uniformly within each sampler,
// and uniform replacement bits. The faults are in no particular order.
// k must be a count Count or Head drew.
func (t *Tail) Faults(r *rng.RNG, k int, lane uint16, dst []Fault) []Fault {
	for i := range t.samplers {
		s := &t.samplers[i]
		ks := k
		if s.rest != nil {
			ks = s.split(r, k)
		}
		dst = s.pick(r, ks, lane, dst)
		k -= ks
	}
	return dst
}

// split draws this sampler's share j of k faults left for it and the
// later samplers, with probability ∝ P(K_s = j)·P(rest = k − j).
func (s *tailSampler) split(r *rng.RNG, k int) int {
	lo, hi := max(0, k-(len(s.rest)-1)), min(k, len(s.pts))
	total := 0.0
	for j := lo; j <= hi; j++ {
		total += s.binom[j] * s.rest[k-j]
	}
	v := r.Float64() * total
	last := lo
	for j := lo; j <= hi; j++ {
		w := s.binom[j] * s.rest[k-j]
		if w == 0 {
			continue
		}
		if last = j; v < w {
			return j
		}
		v -= w
	}
	return last // v fell past the last term by rounding
}

// pick appends k distinct live points of the sampler, a uniform k-subset
// drawn by Floyd's algorithm, as faults with uniform replacement bits.
func (s *tailSampler) pick(r *rng.RNG, k int, lane uint16, dst []Fault) []Fault {
	n := len(s.pts)
	if k == n {
		for _, pt := range s.pts {
			dst = append(dst, Fault{Point: pt, Lane: lane, Bits: uint8(r.Uint64() >> 61)})
		}
		return dst
	}
	from := len(dst)
	for j := n - k; j < n; j++ {
		pt := s.pts[r.Intn(j+1)]
		for _, f := range dst[from:] {
			if f.Point == pt {
				pt = s.pts[j]
				break
			}
		}
		dst = append(dst, Fault{Point: pt, Lane: lane, Bits: uint8(r.Uint64() >> 61)})
	}
	return dst
}

// binomial returns the Binom(n, p) pmf for 0 < p ≤ 1: each term from its
// neighbour by the ratio (n−j)/(j+1)·p/(1−p), outward from the mode, and
// the whole normalized to sum 1, so every term keeps its relative
// precision and terms far from the mode underflow to 0 rather than the
// whole pmf.
func binomial(n int, p float64) []float64 {
	b := make([]float64, n+1)
	m := min(n, int(float64(n+1)*p))
	b[m] = 1
	for j := m; j < n && p < 1; j++ {
		b[j+1] = b[j] * float64(n-j) / float64(j+1) * (p / (1 - p))
	}
	for j := m; j > 0; j-- {
		b[j-1] = b[j] * float64(j) / float64(n-j+1) * ((1 - p) / p)
	}
	sum := 0.0
	for _, x := range b {
		sum += x
	}
	for j := range b {
		b[j] /= sum
	}
	return b
}

// convolve returns the law of the sum of two independent counts with
// pmfs a and b.
func convolve(a, b []float64) []float64 {
	c := make([]float64, len(a)+len(b)-1)
	for i, x := range a {
		for j, y := range b {
			c[i+j] += x * y
		}
	}
	return c
}
