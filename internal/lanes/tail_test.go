package lanes_test

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
)

// The count-first producer's exactness tests: its tables against an
// independent exact computation, and its draws against their laws by
// Pearson χ² at fixed seeds, each at a stated false-alarm rate α.

// liveProbs returns the clamped fault probability of each live point of
// prog, compiled from c under m.
func liveProbs(c *circuit.Circuit, prog *lanes.WideProgram, m noise.Model) []float64 {
	var probs []float64
	for pt := 0; pt < prog.Points(); pt++ {
		if q := lanes.ClampProb(m.FaultProb(c.Op(pt).Kind)); prog.Live(pt) && q > 0 {
			probs = append(probs, q)
		}
	}
	return probs
}

// exactLaw is the law of the number of successes of independent
// Bernoulli(probs[i]) trials, by a DP in exact rationals (each float64
// probability converts exactly).
func exactLaw(probs []float64) []*big.Rat {
	law := []*big.Rat{big.NewRat(1, 1)}
	for _, p := range probs {
		pr := new(big.Rat).SetFloat64(p)
		qr := new(big.Rat).Sub(big.NewRat(1, 1), pr)
		next := make([]*big.Rat, len(law)+1)
		for k := range next {
			next[k] = new(big.Rat)
			if k < len(law) {
				next[k].Mul(law[k], qr)
			}
			if k > 0 {
				next[k].Add(next[k], new(big.Rat).Mul(law[k-1], pr))
			}
		}
		law = next
	}
	return law
}

// floatLaw is exactLaw in float64, the same DP.
func floatLaw(probs []float64) []float64 {
	law := []float64{1}
	for _, p := range probs {
		next := make([]float64, len(law)+1)
		for k := range next {
			if k < len(law) {
				next[k] = law[k] * (1 - p)
			}
			if k > 0 {
				next[k] += law[k-1] * p
			}
		}
		law = next
	}
	return law
}

// relClose reports whether got is within rel of want, relatively.
func relClose(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// TestTailTablesExact: the producer's law of a lane's live-fault count,
// its tail sums and its q agree to 1e-12 relative with a DP in exact
// rationals over the live points, on random circuits with dead points
// under two samplers, on the level-1 gadget under the models the engine
// pins run, with an init probability clamped to 0 or a gate probability
// clamped to 1, and where q is about 1e-12: the tail is summed, not
// taken as 1 minus the head, so it keeps its digits. On the level-2
// gadget, too large for rationals, q(d) matches WalkedFraction(d) for d
// up to 10.
func TestTailTablesExact(t *testing.T) {
	type tc struct {
		name string
		c    *circuit.Circuit
		m    noise.Model
		outs []int
	}
	r := rng.New(29)
	var cases []tc
	for i := 0; i < 12; i++ {
		cases = append(cases, tc{fmt.Sprintf("random%d", i), circuit.Random(r, 4, 4+r.Intn(14), nil), noise.IID{Gate: 0.07, Init: 0.2}, []int{0, 1}})
	}
	g1 := core.NewGadget(gate.MAJ, 1)
	for _, m := range []noise.Model{noise.Uniform(0.03), noise.IID{Gate: 0.02, Init: 0.05}, noise.PerfectInit(0.04),
		noise.IID{Gate: 7, Init: 0.3}, noise.Uniform(1e-7)} {
		cases = append(cases, tc{fmt.Sprintf("gadget1 %+v", m), g1.Circuit, m, outWires(g1.Target)})
	}
	for _, c := range cases {
		prog := lanes.CompileWideFor(c.c, c.m, 8, c.outs)
		probs := liveProbs(c.c, prog, c.m)
		law := exactLaw(probs)
		for d := 1; d <= len(probs)+1; d++ {
			tl := prog.Tail(d)
			pmf, tail := lanes.TailPMF(tl)
			if len(pmf) != len(law) || len(tail) != len(law)+1 {
				t.Fatalf("%s: %d pmf terms, %d tail sums for %d live points", c.name, len(pmf), len(tail), len(probs))
			}
			sum := new(big.Rat)
			for k := len(law) - 1; k >= 0; k-- {
				sum.Add(sum, law[k])
				want, _ := law[k].Float64()
				wantTail, _ := sum.Float64()
				if !relClose(pmf[k], want, 1e-12) || !relClose(tail[k], wantTail, 1e-12) {
					t.Errorf("%s: P(K=%d) %v, P(K≥%d) %v; exact %v, %v", c.name, k, pmf[k], k, tail[k], want, wantTail)
				}
			}
			var q float64
			if d < len(tail) {
				q = tail[d]
			}
			if !relClose(tl.Fraction(), q, 1e-12) || !relClose(prog.WalkedFraction(d), q, 1e-12) {
				t.Errorf("%s d=%d: q %v, WalkedFraction %v, exact %v", c.name, d, tl.Fraction(), prog.WalkedFraction(d), q)
			}
		}
	}
	// q ≈ C(27, 2)·1e-14 ≈ 3.5e-12 on the level-1 gadget at 1e-7.
	if q := lanes.CompileWideFor(g1.Circuit, noise.Uniform(1e-7), 8, outWires(g1.Target)).Tail(2).Fraction(); q < 3e-12 || q > 4e-12 {
		t.Errorf("gadget1 at g=1e-7: q(2) = %v, want about 3.5e-12", q)
	}
	g2 := core.NewGadget(gate.MAJ, 2)
	prog := lanes.CompileWideFor(g2.Circuit, noise.Uniform(0.00303), 8, outWires(g2.Target))
	for d := 1; d <= 10; d++ {
		tl := prog.Tail(d)
		_, tail := lanes.TailPMF(tl)
		if !relClose(tail[d], prog.WalkedFraction(d), 1e-12) || tl.Fraction() != prog.WalkedFraction(d) {
			t.Errorf("gadget2 d=%d: P(K≥d) %v, q %v, WalkedFraction %v", d, tail[d], tl.Fraction(), prog.WalkedFraction(d))
		}
	}
}

// TestTailClampedProbabilities: probabilities clamp as ClampProb says. A
// NaN model has no sampler: q = 0, and Gap skips past any block without
// a draw. A gate probability clamped to 1 faults every live gate point of
// every lane and no init point at probability 0.
func TestTailClampedProbabilities(t *testing.T) {
	g1 := core.NewGadget(gate.MAJ, 1)
	outs := outWires(g1.Target)
	tl := lanes.CompileWideFor(g1.Circuit, noise.Uniform(math.NaN()), 8, outs).Tail(1)
	r, ref := rng.New(3), rng.New(3)
	if q, gap := tl.Fraction(), tl.Gap(r); q != 0 || gap < 1<<62 || r.Uint64() != ref.Uint64() {
		t.Errorf("NaN model: q = %v, gap %d (or a draw)", q, gap)
	}
	m := noise.IID{Gate: 7, Init: 0}
	prog := lanes.CompileWideFor(g1.Circuit, m, 8, outs)
	n := len(liveProbs(g1.Circuit, prog, m))
	tl = prog.Tail(n)
	if tl.Fraction() != 1 {
		t.Fatalf("gate probability clamped to 1: q(%d) = %v, want 1", n, tl.Fraction())
	}
	for lane := 0; lane < 100; lane++ {
		if gap := tl.Gap(r); gap != 0 {
			t.Fatalf("q = 1: gap %d", gap)
		}
		k := tl.Count(r)
		seen := map[int32]bool{}
		for _, f := range tl.Faults(r, k, uint16(lane), nil) {
			if kind := g1.Circuit.Op(int(f.Point)).Kind; kind == gate.Init3 || !prog.Live(int(f.Point)) || seen[f.Point] {
				t.Fatalf("fault on point %d (%s, live %v, repeated %v)", f.Point, kind, prog.Live(int(f.Point)), seen[f.Point])
			}
			seen[f.Point] = true
		}
		if k != n || len(seen) != n {
			t.Fatalf("lane %d: %d faults on %d points, want every one of the %d live gate points", lane, k, len(seen), n)
		}
	}
}

// chiLimit is the upper quantile of χ²(df) at the standard normal
// deviate z, by Wilson–Hilferty: z = 3.09 is α = 1e-3, z = 3.72 is
// α = 1e-4.
func chiLimit(df, z float64) float64 {
	h := 2 / (9 * df)
	return df * math.Pow(1-h+z*math.Sqrt(h), 3)
}

// pearson is Pearson's χ² of the counts obs against probabilities want
// over n draws, with the bins expecting fewer than 20 draws pooled into
// one, and its degrees of freedom.
func pearson(obs []int, want []float64, n int) (chi2, df float64) {
	var poolObs, poolWant float64
	bins := 0
	for i := range obs {
		e := want[i] * float64(n)
		if e < 20 {
			poolObs += float64(obs[i])
			poolWant += e
			continue
		}
		d := float64(obs[i]) - e
		chi2 += d * d / e
		bins++
	}
	if poolWant > 0 {
		d := poolObs - poolWant
		chi2 += d * d / math.Max(poolWant, 1)
		bins++
	}
	return chi2, float64(bins - 1)
}

// checkChi fails t when chi2 is above the χ²(df) quantile at deviate z.
func checkChi(t *testing.T, name string, chi2, df, z float64) {
	t.Helper()
	limit := chiLimit(df, z)
	t.Logf("%s: χ² = %.1f on %v df (critical value %.1f)", name, chi2, df, limit)
	if chi2 > limit {
		t.Errorf("%s: χ² = %.1f on %v df, above the critical value %.1f", name, chi2, df, limit)
	}
}

// tailCase is one program of the χ² tests with its d and the sampler
// (by clamped probability) of each fault point.
type tailCase struct {
	name  string
	c     *circuit.Circuit
	m     noise.Model
	prog  *lanes.WideProgram
	d     int
	probs map[float64][]int // live points by clamped probability
}

func newTailCase(name string, level int, m noise.Model, d int) tailCase {
	g := core.NewGadget(gate.MAJ, level)
	tc := tailCase{name: name, c: g.Circuit, m: m, prog: lanes.CompileWideFor(g.Circuit, m, 8, outWires(g.Target)), d: d, probs: map[float64][]int{}}
	for pt := 0; pt < tc.prog.Points(); pt++ {
		if q := lanes.ClampProb(m.FaultProb(g.Circuit.Op(pt).Kind)); q > 0 && tc.prog.Live(pt) {
			tc.probs[q] = append(tc.probs[q], pt)
		}
	}
	return tc
}

// tailCases are the level-2 gadget at the threshold sweep's ρ/10 and ρ/2
// (d = 3, one sampler) and the level-1 gadget (d = 2) under a two-sampler
// model and with perfect inits.
func tailCases() []tailCase {
	return []tailCase{
		newTailCase("gadget2 rho/10", 2, noise.Uniform(0.000606), 3),
		newTailCase("gadget2 rho/2", 2, noise.Uniform(0.00303), 3),
		newTailCase("gadget1 iid", 1, noise.IID{Gate: 0.02, Init: 0.05}, 2),
		newTailCase("gadget1 perfectinit", 1, noise.PerfectInit(0.04), 2),
	}
}

// selectedLanes is how many lanes the draw tests draw per case.
const selectedLanes = 1000000

// TestTailCountChiSquare: a selected lane's live-fault count follows
// P(K = k)/P(K ≥ d) for k ≥ d, K's law taken from the float DP over the
// live points; 10^6 lanes per case, α = 1e-3 each.
func TestTailCountChiSquare(t *testing.T) {
	for _, tc := range tailCases() {
		law := floatLaw(liveProbs(tc.c, tc.prog, tc.m))
		tl := tc.prog.Tail(tc.d)
		obs := make([]int, len(law))
		r := rng.New(101)
		for i := 0; i < selectedLanes; i++ {
			k := tl.Count(r)
			if k < tc.d || k >= len(law) {
				t.Fatalf("%s: count %d outside [%d, %d]", tc.name, k, tc.d, len(law)-1)
			}
			obs[k]++
		}
		q := 0.0
		for _, x := range law[tc.d:] {
			q += x
		}
		want := make([]float64, len(law))
		for k := tc.d; k < len(law); k++ {
			want[k] = law[k] / q
		}
		chi2, df := pearson(obs[tc.d:], want[tc.d:], selectedLanes)
		checkChi(t, tc.name+" count", chi2, df, 3.09)
	}
}

// TestTailSplitChiSquare: the joint law of a selected lane's faults per
// sampler, (K_gate, K_init), is P(K_gate = a)·P(K_init = b)/P(K ≥ d) for
// a + b ≥ d, each sampler's law from the float DP over its own live
// points; with perfect inits no fault lands on an INIT3. 10^6 lanes per
// case, α = 1e-3 each.
func TestTailSplitChiSquare(t *testing.T) {
	for _, tc := range tailCases() {
		var ps []float64
		for p := range tc.probs {
			ps = append(ps, p)
		}
		if len(ps) == 1 {
			ps = append(ps, 0)
		}
		if ps[0] < ps[1] {
			ps[0], ps[1] = ps[1], ps[0]
		}
		laws := make([][]float64, 2)
		sampler := map[int32]int{}
		for i, p := range ps {
			probs := make([]float64, len(tc.probs[p]))
			for j, pt := range tc.probs[p] {
				probs[j] = p
				sampler[int32(pt)] = i
			}
			laws[i] = floatLaw(probs)
		}
		n0, n1 := len(laws[0]), len(laws[1])
		obs := make([]int, n0*n1)
		want := make([]float64, n0*n1)
		q := 0.0
		for a := range laws[0] {
			for b := range laws[1] {
				if a+b >= tc.d {
					want[a*n1+b] = laws[0][a] * laws[1][b]
					q += want[a*n1+b]
				}
			}
		}
		for i := range want {
			want[i] /= q
		}
		tl := tc.prog.Tail(tc.d)
		r := rng.New(202)
		var buf []lanes.Fault
		for i := 0; i < selectedLanes; i++ {
			buf = tl.Faults(r, tl.Count(r), 0, buf[:0])
			var k [2]int
			for _, f := range buf {
				s, ok := sampler[f.Point]
				if !ok {
					t.Fatalf("%s: fault on point %d, no live point of a sampler", tc.name, f.Point)
				}
				k[s]++
			}
			obs[k[0]*n1+k[1]]++
		}
		var o []int
		var w []float64
		for i := range want {
			if want[i] > 0 {
				o, w = append(o, obs[i]), append(w, want[i])
			} else if obs[i] > 0 {
				t.Fatalf("%s: %d lanes with an impossible split %d/%d", tc.name, obs[i], i/n1, i%n1)
			}
		}
		chi2, df := pearson(o, w, selectedLanes)
		checkChi(t, tc.name+" split", chi2, df, 3.09)
	}
}

// TestTailPointsChiSquare: within a sampler every live point is equally
// likely to take a fault, Pearson χ² for uniformity over the sampler's
// points (conservative: a lane's points are drawn without replacement);
// a lane's faults are on distinct live points; and their replacement
// bits are uniform over the 8 values (7 df). 10^6 lanes per case,
// α = 1e-3 per statistic.
func TestTailPointsChiSquare(t *testing.T) {
	for _, tc := range tailCases() {
		tl := tc.prog.Tail(tc.d)
		hits := make([]int, tc.prog.Points())
		bits := make([]int, 8)
		r := rng.New(303)
		var buf []lanes.Fault
		faults := 0
		for i := 0; i < selectedLanes; i++ {
			buf = tl.Faults(r, tl.Count(r), uint16(i), buf[:0])
			for j, f := range buf {
				if f.Lane != uint16(i) || !tc.prog.Live(int(f.Point)) {
					t.Fatalf("%s: fault %+v of lane %d", tc.name, f, uint16(i))
				}
				for _, g := range buf[:j] {
					if g.Point == f.Point {
						t.Fatalf("%s: lane %d holds two faults on point %d", tc.name, i, f.Point)
					}
				}
				hits[f.Point]++
				bits[f.Bits]++
			}
			faults += len(buf)
		}
		for p, pts := range tc.probs {
			obs, want := make([]int, len(pts)), make([]float64, len(pts))
			total := 0
			for i, pt := range pts {
				obs[i], want[i] = hits[pt], 1/float64(len(pts))
				total += hits[pt]
			}
			chi2, df := pearson(obs, want, total)
			checkChi(t, fmt.Sprintf("%s points at p=%v", tc.name, p), chi2, df, 3.09)
		}
		want := make([]float64, 8)
		for i := range want {
			want[i] = 1.0 / 8
		}
		chi2, df := pearson(bits, want, faults)
		checkChi(t, tc.name+" bits", chi2, df, 3.09)
	}
}

// TestTailGapChiSquare: the producer selects each lane independently
// with q = WalkedFraction(d): its gaps are Geometric(q), checked on 20
// bins of near-equal mass cut at integer quantiles (19 df) over 10^6
// selected lanes per case, α = 1e-3 each.
func TestTailGapChiSquare(t *testing.T) {
	for _, tc := range tailCases() {
		tl := tc.prog.Tail(tc.d)
		q := tc.prog.WalkedFraction(tc.d)
		surv := func(k int64) float64 { return math.Exp(float64(k) * math.Log1p(-q)) } // P(gap ≥ k)
		edges := []int64{0}
		for i := 1; i < 20; i++ {
			e := int64(math.Ceil(math.Log(1-float64(i)/20) / math.Log1p(-q)))
			if e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		obs := make([]int, len(edges))
		r := rng.New(404)
		for i := 0; i < selectedLanes; i++ {
			g := tl.Gap(r)
			b := len(edges) - 1
			for b > 0 && g < edges[b] {
				b--
			}
			obs[b]++
		}
		want := make([]float64, len(edges))
		for b, lo := range edges {
			want[b] = surv(lo)
			if b+1 < len(edges) {
				want[b] -= surv(edges[b+1])
			}
		}
		chi2, df := pearson(obs, want, selectedLanes)
		checkChi(t, fmt.Sprintf("%s gaps at q=%.4g", tc.name, q), chi2, df, 3.09)
	}
}
