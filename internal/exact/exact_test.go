package exact

import (
	"math"
	"math/big"
	"testing"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/threshold"
)

// TestNOTChainClosedForm pins the oracle against a hand-derivable case: a
// chain of N NOT gates on one wire. A fault replaces the wire with a
// uniform bit, so only the last fault matters and it is wrong with
// probability 1/2: P(ε) = (1 − (1−ε)^N)/2, i.e. A_k = C(N,k)/2 exactly
// for every k ≥ 1.
func TestNOTChainClosedForm(t *testing.T) {
	const n = 6
	c := circuit.New(1)
	for i := 0; i < n; i++ {
		c.NOT(0)
	}
	p, err := Enumerate(core.Plain("not-chain", c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Exact() || p.N != n {
		t.Fatalf("poly = %v, want exact with N = %d", p, n)
	}
	if got := p.Coeff(0); got.Sign() != 0 {
		t.Fatalf("A0 = %v, want 0", got)
	}
	binom := int64(1)
	for k := 1; k <= n; k++ {
		binom = binom * int64(n-k+1) / int64(k)
		want := big.NewRat(binom, 2)
		if got := p.Coeff(k); got.Cmp(want) != 0 {
			t.Fatalf("A%d = %v, want %v", k, got, want)
		}
	}
	for _, eps := range []float64{0, 1e-3, 0.1, 0.5, 1} {
		want := (1 - math.Pow(1-eps, n)) / 2
		if got := p.Eval(eps); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Eval(%v) = %v, want closed form %v", eps, got, want)
		}
	}
}

// TestRecoveryFullEnumeration is the tentpole claim: the full 2·9^8-leaf
// enumeration of the Figure 2 recovery proves every single-fault pattern
// corrected and extracts the exact quadratic coefficient.
func TestRecoveryFullEnumeration(t *testing.T) {
	opts := Options{}
	if testing.Short() {
		opts.MaxWeight = 3
	}
	p, err := Enumerate(Recovery(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != core.RecoveryOps {
		t.Fatalf("N = %d, want %d", p.N, core.RecoveryOps)
	}
	if !p.SingleFaultTolerant() {
		t.Fatalf("recovery not single-fault tolerant: %d zero-fault and %d single-fault failures",
			p.FailurePatterns(0), p.FailurePatterns(1))
	}
	// Every op is arity 3, so weight-1 coverage is 8 ops × 8 values × 2
	// inputs = 128 leaf executions.
	if got := p.Patterns(1); got != 128 {
		t.Fatalf("weight-1 patterns = %d, want 128", got)
	}
	// The exact quadratic coefficient of the Figure 2 recovery is 71/32.
	// This is a pinned oracle value: any executor or decoder regression
	// that shifts a single fault pattern moves it.
	if got, want := p.Coeff(2), big.NewRat(71, 32); got.Cmp(want) != 0 {
		t.Fatalf("A2 = %v, want %v", got, want)
	}
	if bound := 3 * threshold.Choose(core.RecoveryOps, 2); p.CoeffFloat(2) > bound {
		t.Fatalf("A2 = %v exceeds the all-pairs-malignant bound %v", p.CoeffFloat(2), bound)
	}

	// A truncated enumeration must agree coefficient-for-coefficient on
	// the weights it covers.
	tr, err := Enumerate(Recovery(), Options{MaxWeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 2; k++ {
		if p.Coeff(k).Cmp(tr.Coeff(k)) != 0 {
			t.Fatalf("weight-%d coefficient differs between full (%v) and truncated (%v) runs",
				k, p.Coeff(k), tr.Coeff(k))
		}
	}
	// And its interval must bracket the full evaluation.
	for _, eps := range []float64{1e-3, 1e-2, 0.1} {
		lo, hi := tr.Bounds(eps)
		if v := p.Eval(eps); v < lo || v > hi {
			t.Fatalf("ε=%v: full P = %v outside truncated bounds [%v, %v]", eps, v, lo, hi)
		}
	}
}

// TestRecoverySkipInit checks the G = 9 accounting: with Init3 exempt the
// recovery has 6 fault locations and stays single-fault tolerant.
func TestRecoverySkipInit(t *testing.T) {
	p, err := Enumerate(Recovery(), Options{SkipInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != core.GNoInit-3 {
		t.Fatalf("N = %d, want %d non-Init ops", p.N, core.GNoInit-3)
	}
	if !p.SingleFaultTolerant() {
		t.Fatal("recovery with perfect init not single-fault tolerant")
	}
	full, err := Enumerate(Recovery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CoeffFloat(2) > full.CoeffFloat(2) {
		t.Fatalf("excluding Init3 faults raised A2: %v > %v", p.CoeffFloat(2), full.CoeffFloat(2))
	}
}

// TestGadgetMatchesPairEnumeration anchors the oracle's A2 to the
// independent pair enumeration in core: two different exhaustive
// implementations must agree to rounding error, and stay under Equation
// 1's 3·C(G,2) with G = 11.
func TestGadgetMatchesPairEnumeration(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 1)
	p, err := Enumerate(Gadget(g), Options{MaxWeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 27 {
		t.Fatalf("N = %d, want 27 level-1 ops", p.N)
	}
	if !p.SingleFaultTolerant() {
		t.Fatal("level-1 MAJ gadget not single-fault tolerant")
	}
	want := g.QuadraticCoefficient()
	if got := p.CoeffFloat(2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("oracle A2 = %v, pair enumeration c2 = %v", got, want)
	}
	// Pinned: the level-1 MAJ gadget's exact quadratic coefficient.
	if got, pin := p.Coeff(2), big.NewRat(825, 64); got.Cmp(pin) != 0 {
		t.Fatalf("A2 = %v, want pinned %v", got, pin)
	}
	if bound := 3 * threshold.Choose(threshold.GNonLocalInit, 2); p.CoeffFloat(2) > bound {
		t.Fatalf("A2 = %v exceeds Equation 1's %v", p.CoeffFloat(2), bound)
	}
}

// TestRandomCircuitsMatchRunInjected cross-validates the packed-state
// executor against the bitvec path: on random circuits, the oracle's
// integer weight-0/1/2 failure counts must equal a brute-force recount
// through sim.RunInjected.
func TestRandomCircuitsMatchRunInjected(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		width := 2 + r.Intn(4) // 2..5
		nops := 2 + r.Intn(4)  // 2..5
		c := circuit.Random(r, width, nops, nil)
		tgt := core.Plain("rand", c)
		p, err := Enumerate(tgt, Options{MaxWeight: 2})
		if err != nil {
			t.Fatal(err)
		}

		arity := make([]int, c.Len())
		for i := range arity {
			arity[i] = c.Op(i).Kind.Arity()
		}
		nin := uint64(1) << uint(width)
		countFails := func(plan noise.Plan) int64 {
			var fails int64
			for in := uint64(0); in < nin; in++ {
				want := c.Eval(in)
				st := bitvec.FromUint(in, width)
				sim.RunInjected(c, st, plan)
				if st.Uint(0, width) != want {
					fails++
				}
			}
			return fails
		}

		if got := countFails(noise.Plan{}); got != p.FailurePatterns(0) {
			t.Fatalf("seed %d: weight-0 failures %d, oracle %d", seed, got, p.FailurePatterns(0))
		}
		var w1 int64
		for i := 0; i < c.Len(); i++ {
			for a := uint64(0); a < 1<<uint(arity[i]); a++ {
				w1 += countFails(noise.Plan{i: a})
			}
		}
		if w1 != p.FailurePatterns(1) {
			t.Fatalf("seed %d: weight-1 failures %d, oracle %d", seed, w1, p.FailurePatterns(1))
		}
		var w2 int64
		for i := 0; i < c.Len(); i++ {
			for j := i + 1; j < c.Len(); j++ {
				for a := uint64(0); a < 1<<uint(arity[i]); a++ {
					for b := uint64(0); b < 1<<uint(arity[j]); b++ {
						w2 += countFails(noise.Plan{i: a, j: b})
					}
				}
			}
		}
		if w2 != p.FailurePatterns(2) {
			t.Fatalf("seed %d: weight-2 failures %d, oracle %d", seed, w2, p.FailurePatterns(2))
		}
	}
}

func TestEnumerateErrors(t *testing.T) {
	if _, err := Enumerate(core.Plain("wide", circuit.New(65).NOT(64)), Options{}); err == nil {
		t.Fatal("width 65 did not error")
	}
	if _, err := Enumerate(core.Target{Name: "nilfn", Circuit: circuit.New(1).NOT(0), In: [][]int{{0}}, Out: [][]int{{0}}}, Options{}); err == nil {
		t.Fatal("nil Logical did not error")
	}
	bad := core.Target{
		Name: "badblock", Circuit: circuit.New(2).NOT(0),
		In: [][]int{{0, 1}}, Out: [][]int{{0, 1}},
		Logical: circuit.New(1),
	}
	if _, err := Enumerate(bad, Options{}); err == nil {
		t.Fatal("two-wire codeword block did not error")
	}
	g := core.NewGadget(gate.MAJ, 1)
	if _, err := Enumerate(Gadget(g), Options{MaxLeaves: 1000}); err == nil {
		t.Fatal("budget overflow did not error")
	}
	if _, err := Enumerate(Gadget(g), Options{}); err == nil {
		t.Fatal("full 27-op enumeration slipped under the default budget")
	}
}

func TestTailBound(t *testing.T) {
	p, err := Enumerate(Recovery(), Options{MaxWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With A0 = A1 = 0 the enumerated part is zero everywhere; the truth
	// lies entirely in the tail.
	for _, eps := range []float64{0.01, 0.1} {
		if v := p.Eval(eps); v != 0 {
			t.Fatalf("Eval(%v) = %v, want 0 below weight 2", eps, v)
		}
		tail := p.TailBound(eps)
		// The tail is P[Binomial(8, eps) >= 2].
		want := 1 - math.Pow(1-eps, 8) - 8*eps*math.Pow(1-eps, 7)
		if math.Abs(tail-want) > 1e-12 {
			t.Fatalf("TailBound(%v) = %v, want binomial tail %v", eps, tail, want)
		}
	}
	if tail := p.TailBound(0); tail != 0 {
		t.Fatalf("TailBound(0) = %v", tail)
	}
}
