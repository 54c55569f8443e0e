package exp

import (
	"context"
	"fmt"

	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/irrev"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/sim"
	"revft/internal/synth"
	"revft/internal/threshold"
)

// InitAblation measures the effect of the paper's two initialization
// conventions: initialization as noisy as any gate (G = 11) versus
// noiseless initialization (G = 9), on the level-1 logical error rate.
func InitAblation(ctx context.Context, gs []float64, p MCParams) (*Table, error) {
	t := &Table{
		ID:     "F3",
		Title:  "Ablation: noisy vs perfect initialization (G = 11 vs G = 9)",
		Header: []string{"g", "noisy init (G=11)", "perfect init (G=9)", "ratio"},
	}
	gad := core.NewGadget(gate.MAJ, 1)
	for i, g := range gs {
		noisy, err := p.rate(ctx, gad.Target, core.Noisy(noise.Uniform(g)), p.Seed+uint64(2*i))
		if err != nil {
			return nil, err
		}
		perfect, err := p.rate(ctx, gad.Target, core.Noisy(noise.PerfectInit(g)), p.Seed+uint64(2*i+1))
		if err != nil {
			return nil, err
		}
		t.AddRow(g, noisy, perfect, ratio(noisy, perfect))
	}
	t.AddNote("the paper's bound ratio is C(11,2)/C(9,2) = 55/36 ≈ 1.53; measured ratios approach it as g grows (at tiny g the estimates are shot-noise limited)")
	return t, nil
}

// CorrelatedNoise measures how temporally correlated faults degrade the
// level-1 logical error rate at a fixed marginal fault rate — probing the
// paper's §2 caveat that its analysis requires failures no more correlated
// than the binomial. The burst process has no lane path: a lane engine is
// refused before any trial runs.
func CorrelatedNoise(ctx context.Context, g float64, corrs []float64, p MCParams) (*Table, error) {
	if err := p.scalarOnly("correlated"); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F3",
		Title:  "Ablation: correlated (burst) faults at fixed marginal rate",
		Header: []string{"corr", "spontaneous rate", "marginal rate", "measured g_logical", "vs IID"},
	}
	gad := core.NewGadget(gate.MAJ, 1)
	iid, err := p.rate(ctx, gad.Target, core.Noisy(noise.Uniform(g)), p.Seed)
	if err != nil {
		return nil, err
	}
	for i, corr := range corrs {
		// Choose the spontaneous rate so the marginal matches g.
		base := g * (1 - corr*(1-g))
		b := noise.Burst{Gate: base, Init: base, Corr: corr}
		est, err := p.rate(ctx, gad.Target, core.Process(b), p.Seed+uint64(i+1))
		if err != nil {
			return nil, err
		}
		t.AddRow(corr, base, b.Marginal(), est, ratio(est, iid))
	}
	t.AddNote("IID reference at the same marginal rate: %.3g", iid)
	t.AddNote("correlated pairs defeat a single-fault-tolerant code, so g_logical grows with corr at fixed marginal rate")
	return t, nil
}

// ExactThresholds compares the paper's relaxed threshold ρ = 1/(3·C(G,2))
// with the fixed point of the exact binomial recursion — the "tighter
// bound" improvement the paper mentions but does not compute.
func ExactThresholds() *Table {
	t := &Table{
		ID:     "F3",
		Title:  "Ablation: relaxed vs exact-recursion thresholds",
		Header: []string{"Architecture", "G", "ρ (paper)", "exact fixed point", "improvement"},
	}
	rows := []struct {
		name string
		g    int
	}{
		{"non-local, init counted", threshold.GNonLocalInit},
		{"non-local, accurate init", threshold.GNonLocal},
		{"2D, init counted", threshold.G2DInit},
		{"2D, accurate init", threshold.G2D},
		{"1D, init counted", threshold.G1DInit},
		{"1D, accurate init", threshold.G1D},
	}
	for _, r := range rows {
		rho := threshold.MustThreshold(r.g)
		exact := threshold.ExactThreshold(r.g)
		t.AddRow(r.name, r.g, rho, exact, exact/rho)
	}
	t.AddNote("the exact recursion uses g_logical = 1−(1−P_bit)³ with the full binomial tail for P_bit")
	return t
}

// InterleaveAblation compares the three local routing schemes: perpendicular
// 2D (strictly fault tolerant), parallel 2D, and 1D — exhaustive audits plus
// measured level-1 error rates.
func InterleaveAblation(ctx context.Context, gs []float64, p MCParams) (*Table, error) {
	t := &Table{
		ID:     "F4/F6",
		Title:  "Ablation: interleave schemes — fault audits and measured error rates",
		Header: []string{"scheme", "single-fault failures", "dangerous ops", "g", "measured"},
	}
	schemes := []struct {
		name string
		c    *lattice.Cycle
	}{
		{"2D perpendicular", lattice.NewCycle2D(gate.MAJ)},
		{"2D parallel", lattice.NewCycle2DParallel(gate.MAJ)},
		{"1D", lattice.NewCycle1D(gate.MAJ)},
	}
	for si, s := range schemes {
		audit := s.c.AuditSingleFaults()
		danger := len(s.c.CrossingOps())
		for i, g := range gs {
			est, err := p.rate(ctx, s.c.Target, core.Noisy(noise.Uniform(g)), p.Seed+uint64(100*si+i))
			if err != nil {
				return nil, err
			}
			t.AddRow(s.name, len(audit.Failures), danger, g, est)
		}
	}
	t.AddNote("only the perpendicular scheme routes exclusively through ancilla cells; the others swap data through data")
	return t, nil
}

// NANDSimulation regenerates footnote 4: the entropy cost of simulating an
// irreversible NAND reversibly — 2 bits for the naive Toffoli construction,
// exactly 3/2 bits (optimal) for the MAJ⁻¹ construction.
func NANDSimulation() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "NAND simulation entropy (paper footnote 4)",
		Header: []string{"construction", "computes NAND", "garbage entropy (exact)", "measured (200k)"},
	}
	for _, c := range []*irrev.NANDConstruction{irrev.NANDViaToffoli(), irrev.NANDViaMAJInv()} {
		t.AddRow(c.Name, c.Correct(), c.GarbageEntropy(), c.MeasuredGarbageEntropy(200000, 17))
	}
	t.AddNote("paper: 3/2 bits is optimal for equally likely inputs and is achieved by MAJ⁻¹")
	return t
}

// SynthesisCosts regenerates the circuit-optimality facts: minimal gate
// counts of the paper's gates over {NOT, CNOT, Toffoli}, proving Figure 1's
// three-gate MAJ optimal.
func SynthesisCosts() *Table {
	t := &Table{
		ID:     "F1",
		Title:  "Minimal realizations over {NOT, CNOT, Toffoli} (BFS-exact)",
		Header: []string{"gate", "min ops", "note"},
	}
	set := synth.Placements(gate.NOT, gate.CNOT, gate.Toffoli)
	rows := []struct {
		k    gate.Kind
		note string
	}{
		{gate.MAJ, "Figure 1's construction is optimal"},
		{gate.MAJInv, "inverse costs the same"},
		{gate.Fredkin, "CNOT·Toffoli·CNOT"},
		{gate.SWAP3, "two 3-CNOT swaps; no shortcut exists"},
	}
	for _, r := range rows {
		t.AddRow(r.k.String(), synth.MinGateCount(synth.FromKind(r.k), set), r.note)
	}
	return t
}

// MemoryExperiment measures fault-tolerant storage: logical error of one
// held bit versus the number of recovery cycles, each stored value drawn
// uniformly (Memory.Target under core.Uniform).
func MemoryExperiment(ctx context.Context, g float64, cycles []int, p MCParams) (*Table, error) {
	t := &Table{
		ID:     "F2",
		Title:  "Fault-tolerant storage: stored-bit error vs recovery cycles (level 1)",
		Header: []string{"cycles", "measured error", "per-cycle rate"},
	}
	nm := noise.Uniform(g)
	for i, n := range cycles {
		est, err := p.rate(ctx, core.NewMemory(1, n).Target(), core.Noisy(nm), p.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		t.AddRow(n, est, ratio(est, float64(n)))
	}
	t.AddNote("g = %v; per-cycle rates should be flat (linear accumulation) and ≲ C(E,2)·g² = %.3g",
		g, threshold.Choose(core.RecoveryOps, 2)*g*g)
	return t, nil
}

// PairAnalysis exhaustively enumerates all two-fault combinations of the
// level-1 gadget to compute the exact quadratic coefficient c₂ of the
// logical error rate — the number the paper's Equation 1 bounds by
// 3·C(G,2) = 165 by declaring every pair of faults malignant.
func PairAnalysis() *Table {
	t := &Table{
		ID:     "F3",
		Title:  "Exact two-fault analysis of the level-1 gadget (exhaustive)",
		Header: []string{"Quantity", "Paper (bound)", "Exact (enumerated)"},
	}
	g := core.NewGadget(gate.MAJ, 1)
	c2 := g.QuadraticCoefficient()
	malignant, total := g.MalignantPairs()
	bound := 3 * threshold.Choose(threshold.GNonLocalInit, 2)
	t.AddRow("quadratic coefficient c₂ (g_logical ≈ c₂·g²)", bound, c2)
	t.AddRow("malignant op pairs", total, malignant)
	t.AddRow("implied pseudo-threshold 1/c₂", threshold.MustThreshold(threshold.GNonLocalInit), 1/c2)
	t.AddNote("only %d of %d op pairs can cause a logical error at all, and most of those only for some fault values; "+
		"the exact pseudo-threshold 1/c₂ ≈ %.3f explains why Monte Carlo sees the crossover an order of magnitude above ρ = 1/165",
		malignant, total, 1/c2)
	return t
}

// IdleNoise measures the architecture/performance trade-off the paper's
// issue 1 raises: when idle bits also decay (flip with probability
// idleFrac·g per time step), both local schemes degrade — the 1D cycle is
// ~4x deeper than the 2D cycle, so its absolute error grows faster, keeping
// it an order of magnitude worse across the sweep. The idle schedule has
// no lane path: a lane engine is refused before any trial runs.
func IdleNoise(ctx context.Context, g float64, idleFracs []float64, p MCParams) (*Table, error) {
	if err := p.scalarOnly("idle"); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F4/F7",
		Title:  "Ablation: idle-bit noise — scheduled execution of the local cycles",
		Header: []string{"idle/g", "2D measured", "1D measured", "1D/2D"},
	}
	c2 := lattice.NewCycle2D(gate.MAJ)
	c1 := lattice.NewCycle1D(gate.MAJ)
	s2 := sim.NewScheduled(c2.Circuit)
	s1 := sim.NewScheduled(c1.Circuit)
	for i, f := range idleFracs {
		m := noise.Idle{Gate: g, Init: g, Idle: f * g}
		e2, err := p.rate(ctx, c2.Target, core.Idle(s2, m), p.Seed+uint64(2*i))
		if err != nil {
			return nil, err
		}
		e1, err := p.rate(ctx, c1.Target, core.Idle(s1, m), p.Seed+uint64(2*i+1))
		if err != nil {
			return nil, err
		}
		t.AddRow(f, e2, e1, ratio(e1, e2))
	}
	t.AddNote("gate error g = %v; cycle depths: 2D = %d, 1D = %d time steps", g, s2.Depth(), s1.Depth())
	t.AddNote("the paper's model has noiseless idle bits (idle/g = 0); positive idle noise is our ablation")
	return t, nil
}

// scalarOnly refuses a lane engine for a driver whose runs are a fault
// process or an idle schedule, which only the scalar engine executes.
func (p MCParams) scalarOnly(name string) error {
	if p.wideWords() > 0 {
		return fmt.Errorf("exp: %s on engine %s: the lane engine runs only Noisy runs", name, p.Engine)
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
