// Package exact is the exhaustive fault-enumeration oracle: it computes
// the *exact* failure probability of a fault-tolerant circuit under the
// paper's randomizing fault channel, with no sampling error, by walking
// every fault pattern up to a weight cutoff (or all 2^N patterns for small
// circuits).
//
// The channel faults each of a circuit's N gate locations independently
// with probability ε, and a faulted op's target bits are replaced by a
// uniform local value (which may coincide with the ideal one). Averaging
// over uniform logical inputs, the failure probability is the polynomial
//
//	P(ε) = Σ_k A_k ε^k (1−ε)^(N−k),
//
// where A_k is the total failure mass of all weight-k fault patterns. The
// oracle computes each A_k exactly as a rational number: it is a sum of
// integer failure counts divided by powers of two (the uniform-value and
// uniform-input normalizations), so every coefficient is held as integer
// counters and exposed via math/big.Rat — float64 never enters the
// enumeration, only the final evaluation.
//
// A_0 = 0 is noiseless correctness; A_1 = 0 is exactly the paper's §2.2
// claim that every single fault in the recovery is corrected; A_2 is the
// exact quadratic coefficient that Equation 1 bounds by 3·C(G,2).
//
// Enumeration shares work across patterns: a depth-first walk over the ops
// branches, at each fault location, into the no-fault continuation and the
// 2^arity injected values, so all patterns that agree on a prefix share
// its execution. States are packed into a uint64 (one bit per wire), which
// caps targets at 64 wires — far beyond the level-1 constructions the
// repo proves things about.
package exact

import (
	"fmt"
	"math"
	"math/big"

	"revft/internal/core"
	"revft/internal/gate"
)

// Options configures an enumeration.
type Options struct {
	// MaxWeight caps the fault-pattern weight. Values <= 0 or >= the
	// number of fault locations select full enumeration of all 2^N
	// patterns, making the resulting polynomial exact at every ε rather
	// than a truncation with tail bounds.
	MaxWeight int
	// SkipInit excludes Init3 ops from the fault locations, matching the
	// noise.PerfectInit accounting (G = 9 instead of G = 11 for the
	// recovery). Init3 ops still execute ideally.
	SkipInit bool
	// MaxLeaves bounds the enumeration size (leaf executions, summed over
	// logical inputs); Enumerate refuses budgets above it rather than
	// silently running for hours. 0 selects 5e8, comfortably above the
	// full recovery enumeration (2·9^8 ≈ 8.6e7).
	MaxLeaves float64
}

const defaultMaxLeaves = 5e8

// Poly is the enumerated failure polynomial P(ε) = Σ_k A_k ε^k(1−ε)^(N−k).
// The coefficients are stored as integer failure counters split by the
// total arity of the faulted ops, so they are exact rationals.
type Poly struct {
	Name string
	// N is the number of fault locations, NIn the number of logical input
	// bits averaged over, MaxWeight the enumerated weight cutoff (equal to
	// N when the enumeration is full).
	N, NIn, MaxWeight int
	// SkipInit records whether Init3 ops were excluded from the fault
	// locations (the noise.PerfectInit accounting).
	SkipInit bool
	// fail[k][b] counts the (pattern, values, input) leaf executions of
	// weight k and total faulted arity b that decoded incorrectly;
	// leaves[k][b] counts all such executions. The weight-k coefficient is
	// A_k = Σ_b fail[k][b] / 2^(b+NIn).
	fail   [][]int64
	leaves [][]int64
}

// Exact reports whether the enumeration covered all 2^N patterns, making
// Eval exact with a zero tail bound.
func (p *Poly) Exact() bool { return p.MaxWeight >= p.N }

// FailurePatterns returns the integer count of weight-k (pattern, fault
// values, logical input) combinations that failed. Zero at k = 0 is
// noiseless correctness; zero at k = 1 is single-fault tolerance.
func (p *Poly) FailurePatterns(k int) int64 {
	if k < 0 || k > p.MaxWeight {
		return 0
	}
	var n int64
	for _, f := range p.fail[k] {
		n += f
	}
	return n
}

// Patterns returns the total number of weight-k leaf executions examined.
func (p *Poly) Patterns(k int) int64 {
	if k < 0 || k > p.MaxWeight {
		return 0
	}
	var n int64
	for _, f := range p.leaves[k] {
		n += f
	}
	return n
}

// SingleFaultTolerant reports whether no zero- or single-fault pattern
// fails — the exhaustive form of the paper's §2.2 claim. It panics if the
// enumeration did not reach weight 1.
func (p *Poly) SingleFaultTolerant() bool {
	if p.MaxWeight < 1 {
		panic("exact: SingleFaultTolerant needs MaxWeight >= 1")
	}
	return p.FailurePatterns(0) == 0 && p.FailurePatterns(1) == 0
}

// Coeff returns A_k as an exact rational: the average over uniform inputs
// and uniform fault values of the weight-k failure indicator, summed over
// all weight-k location subsets.
func (p *Poly) Coeff(k int) *big.Rat {
	out := new(big.Rat)
	if k < 0 || k > p.MaxWeight {
		return out
	}
	for b, f := range p.fail[k] {
		if f == 0 {
			continue
		}
		den := new(big.Int).Lsh(big.NewInt(1), uint(b+p.NIn))
		out.Add(out, new(big.Rat).SetFrac(big.NewInt(f), den))
	}
	return out
}

// CoeffFloat is Coeff rounded to float64.
func (p *Poly) CoeffFloat(k int) float64 {
	if k < 0 || k > p.MaxWeight {
		return 0
	}
	v := 0.0
	for b, f := range p.fail[k] {
		if f != 0 {
			v += float64(f) * math.Pow(0.5, float64(b+p.NIn))
		}
	}
	return v
}

// Eval returns the enumerated part of P(ε): exact when Exact(), otherwise
// a lower bound whose gap is at most TailBound(eps).
func (p *Poly) Eval(eps float64) float64 {
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("exact: Eval at ε = %v outside [0,1]", eps))
	}
	v := 0.0
	for k := 0; k <= p.MaxWeight; k++ {
		a := p.CoeffFloat(k)
		if a == 0 {
			continue
		}
		v += a * math.Pow(eps, float64(k)) * math.Pow(1-eps, float64(p.N-k))
	}
	return v
}

// TailBound bounds the truncated mass: the probability that more than
// MaxWeight of the N locations fault. Every unexamined pattern fails in
// the worst case, so the true P(ε) lies in [Eval, Eval+TailBound]. The
// bound is 0 for a full enumeration.
func (p *Poly) TailBound(eps float64) float64 {
	if p.Exact() {
		return 0
	}
	v := 0.0
	binom := 1.0
	for k := 0; k <= p.N; k++ {
		if k > p.MaxWeight {
			v += binom * math.Pow(eps, float64(k)) * math.Pow(1-eps, float64(p.N-k))
		}
		binom *= float64(p.N-k) / float64(k+1)
	}
	return v
}

// Bounds returns the exact interval [lo, hi] containing the true failure
// probability at ε. For a full enumeration lo == hi.
func (p *Poly) Bounds(eps float64) (lo, hi float64) {
	lo = p.Eval(eps)
	hi = lo + p.TailBound(eps)
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String summarizes the polynomial's leading structure.
func (p *Poly) String() string {
	kind := "exact"
	if !p.Exact() {
		kind = fmt.Sprintf("truncated at weight %d", p.MaxWeight)
	}
	s := fmt.Sprintf("%s: N=%d locations (%s)", p.Name, p.N, kind)
	for k := 0; k <= p.MaxWeight && k <= 3; k++ {
		s += fmt.Sprintf(", A%d=%.6g", k, p.CoeffFloat(k))
	}
	return s
}

// popOp is one op lowered for packed-state execution: the local
// permutation table plus a precomputed spread table mapping a local value
// to its placement on the target wires.
type popOp struct {
	t0, t1, t2 int
	arity      int
	mask       uint64 // OR of the target wire bits
	perm       []uint8
	sp         [8]uint64 // sp[v] = local value v spread onto the targets
	faultable  bool
}

type enum struct {
	ops    []popOp
	maxW   int
	want   uint64 // packed ideal logical outputs for the current input
	out    [][]int
	fail   [][]int64
	leaves [][]int64
}

// Enumerate walks every fault pattern of t up to o.MaxWeight, for every
// logical input, and returns the failure polynomial.
func Enumerate(t core.Target, o Options) (*Poly, error) {
	c := t.Circuit
	if c == nil {
		return nil, fmt.Errorf("exact: %s: nil circuit", t.Name)
	}
	if c.Width() > 64 {
		return nil, fmt.Errorf("exact: %s: width %d exceeds the packed-state limit of 64 wires", t.Name, c.Width())
	}
	if t.Logical == nil {
		return nil, fmt.Errorf("exact: %s: nil logical circuit", t.Name)
	}
	nin := len(t.In)
	if nin > 20 {
		return nil, fmt.Errorf("exact: %s: %d logical inputs means %d input states; refusing", t.Name, nin, 1<<uint(nin))
	}
	for _, blocks := range [2][][]int{t.In, t.Out} {
		for _, wires := range blocks {
			if !isPowerOfThree(len(wires)) {
				return nil, fmt.Errorf("exact: %s: codeword block of %d wires is not a power of three", t.Name, len(wires))
			}
			for _, w := range wires {
				if w < 0 || w >= c.Width() {
					return nil, fmt.Errorf("exact: %s: wire %d out of range [0,%d)", t.Name, w, c.Width())
				}
			}
		}
	}

	e := &enum{ops: make([]popOp, 0, c.Len()), out: t.Out}
	n := 0 // fault locations
	c.Each(func(_ int, k gate.Kind, targets []int) {
		op := popOp{arity: len(targets), perm: k.Permutation()}
		op.t0 = targets[0]
		op.t1, op.t2 = op.t0, op.t0
		if op.arity > 1 {
			op.t1 = targets[1]
		}
		if op.arity > 2 {
			op.t2 = targets[2]
		}
		for v := 0; v < 1<<uint(op.arity); v++ {
			var s uint64
			for i, w := range targets {
				s |= uint64(v) >> uint(i) & 1 << uint(w)
			}
			op.sp[v] = s
		}
		op.mask = op.sp[1<<uint(op.arity)-1]
		op.faultable = !(o.SkipInit && k == gate.Init3)
		if op.faultable {
			n++
		}
		e.ops = append(e.ops, op)
	})

	maxW := o.MaxWeight
	if maxW <= 0 || maxW > n {
		maxW = n
	}
	e.maxW = maxW

	budget := o.MaxLeaves
	if budget <= 0 {
		budget = defaultMaxLeaves
	}
	if est := leafEstimate(e.ops, maxW) * math.Pow(2, float64(nin)); est > budget {
		return nil, fmt.Errorf("exact: %s: enumeration needs ~%.3g leaf executions, over the budget of %.3g; lower Options.MaxWeight", t.Name, est, budget)
	}

	e.fail = make([][]int64, maxW+1)
	e.leaves = make([][]int64, maxW+1)
	for k := range e.fail {
		e.fail[k] = make([]int64, 3*k+1)
		e.leaves[k] = make([]int64, 3*k+1)
	}

	nout := len(t.Out)
	for in := uint64(0); in < 1<<uint(nin); in++ {
		var st uint64
		for i, wires := range t.In {
			if in>>uint(i)&1 == 1 {
				for _, w := range wires {
					st |= 1 << uint(w)
				}
			}
		}
		e.want = t.Logical.Eval(in) & (1<<uint(nout) - 1)
		e.walk(st, 0, 0, 0)
	}

	return &Poly{
		Name: t.Name, N: n, NIn: nin, MaxWeight: maxW, SkipInit: o.SkipInit,
		fail: e.fail, leaves: e.leaves,
	}, nil
}

// walk advances the depth-first enumeration: apply op opIdx ideally and
// recurse, then (if the op is a fault location and budget remains) recurse
// once per possible injected local value. w is the pattern weight so far,
// abits the total arity of the faulted ops.
func (e *enum) walk(state uint64, opIdx, w, abits int) {
	if opIdx == len(e.ops) {
		e.leaves[w][abits]++
		if e.decodeFails(state) {
			e.fail[w][abits]++
		}
		return
	}
	o := &e.ops[opIdx]
	var in uint64
	switch o.arity {
	case 3:
		in = state>>uint(o.t0)&1 | state>>uint(o.t1)&1<<1 | state>>uint(o.t2)&1<<2
	case 2:
		in = state>>uint(o.t0)&1 | state>>uint(o.t1)&1<<1
	default:
		in = state >> uint(o.t0) & 1
	}
	base := state &^ o.mask
	e.walk(base|o.sp[o.perm[in]], opIdx+1, w, abits)
	if o.faultable && w < e.maxW {
		for v := 0; v < 1<<uint(o.arity); v++ {
			e.walk(base|o.sp[v], opIdx+1, w+1, abits+o.arity)
		}
	}
}

// decodeFails majority-decodes every output block of the packed final
// state and compares against the ideal logical outputs.
func (e *enum) decodeFails(state uint64) bool {
	for i, wires := range e.out {
		if decodePacked(state, wires) != (e.want>>uint(i)&1 == 1) {
			return true
		}
	}
	return false
}

// decodePacked recursively majority-decodes a block of 3^L wires from the
// packed state.
func decodePacked(state uint64, wires []int) bool {
	if len(wires) == 1 {
		return state>>uint(wires[0])&1 == 1
	}
	third := len(wires) / 3
	a := decodePacked(state, wires[:third])
	b := decodePacked(state, wires[third:2*third])
	c := decodePacked(state, wires[2*third:])
	return a && b || b && c || a && c
}

// leafEstimate returns the exact number of leaf executions per logical
// input: the DP L_i(w) = L_{i+1}(w) + [faultable_i, w>0]·2^arity·L_{i+1}(w−1)
// evaluated at the first op with the full weight budget.
func leafEstimate(ops []popOp, maxW int) float64 {
	cur := make([]float64, maxW+1)
	next := make([]float64, maxW+1)
	for w := range cur {
		cur[w] = 1
	}
	for i := len(ops) - 1; i >= 0; i-- {
		o := &ops[i]
		for w := 0; w <= maxW; w++ {
			next[w] = cur[w]
			if o.faultable && w > 0 {
				next[w] += float64(int(1)<<uint(o.arity)) * cur[w-1]
			}
		}
		cur, next = next, cur
	}
	return cur[maxW]
}

func isPowerOfThree(n int) bool {
	if n < 1 {
		return false
	}
	for n%3 == 0 {
		n /= 3
	}
	return n == 1
}
