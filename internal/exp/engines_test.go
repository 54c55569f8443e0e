package exp

import (
	"context"
	"testing"

	"revft/internal/adder"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/sim"
	"revft/internal/stats"
)

// Lane-vs-scalar equivalence: on identical sweeps the 64-lane and the
// scalar engine must
// produce estimates whose 95% Wilson intervals overlap at every point.
// The engines consume randomness differently, so bit-identical agreement
// is neither expected nor required.

func requireOverlap(t *testing.T, what string, g float64, scalar, lane stats.Bernoulli) {
	t.Helper()
	lo1, hi1 := scalar.Wilson(1.96)
	lo2, hi2 := lane.Wilson(1.96)
	if lo1 > hi2 || lo2 > hi1 {
		t.Errorf("%s at g=%v: scalar %v and lanes %v have disjoint 95%% Wilson intervals",
			what, g, scalar, lane)
	}
}

// mustRate unwraps a context estimator's result, failing the test on
// error: must := mustRate(t); est := must(g.Estimate(...)).
func mustRate(t *testing.T) func(sim.Result, error) stats.Bernoulli {
	return func(res sim.Result, err error) stats.Bernoulli {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res.Bernoulli
	}
}

func TestGadgetEnginesEquivalentSweep(t *testing.T) {
	gad := core.NewGadget(gate.MAJ, 1)
	const trials = 40000
	for i, g := range []float64{1e-3, 5e-3, 2e-2} {
		run := core.Noisy(noise.Uniform(g))
		seed := uint64(100 + i)
		scalar := mustRate(t)(gad.Estimate(context.Background(), core.Uniform, run, 0, 0, trials, 4, seed))
		lane := mustRate(t)(gad.Estimate(context.Background(), core.Uniform, run, MCParams{Engine: EngineLanes}.wideWords(), 0, trials, 4, seed))
		if lane.Trials != trials {
			t.Fatalf("lane engine ran %d trials, want %d", lane.Trials, trials)
		}
		requireOverlap(t, "level-1 MAJ gadget", g, scalar, lane)
	}
}

func TestCycleEnginesEquivalent(t *testing.T) {
	const trials = 20000
	for _, tc := range []struct {
		name  string
		cycle *lattice.Cycle
	}{
		{"2D", lattice.NewCycle2D(gate.MAJ)},
		{"1D", lattice.NewCycle1D(gate.MAJ)},
	} {
		for i, g := range []float64{2e-3, 1e-2} {
			run := core.Noisy(noise.Uniform(g))
			seed := uint64(200 + i)
			scalar := mustRate(t)(tc.cycle.Estimate(context.Background(), core.Uniform, run, 0, 0, trials, 4, seed))
			lane := mustRate(t)(tc.cycle.Estimate(context.Background(), core.Uniform, run, MCParams{Engine: EngineLanes}.wideWords(), 0, trials, 4, seed))
			requireOverlap(t, tc.name+" cycle", g, scalar, lane)
		}
	}
}

func TestModuleEnginesEquivalent(t *testing.T) {
	logical, _ := adder.New(2)
	ft := core.CompileModule(logical, 1).Target()
	bare := core.Plain("unprotected", logical)
	const trials = 20000
	in := core.Fixed(0b0110)
	must := mustRate(t)
	ctx := context.Background()
	for i, g := range []float64{1e-3, 5e-3} {
		run := core.Noisy(noise.Uniform(g))
		seed := uint64(300 + i)
		requireOverlap(t, "FT adder module", g,
			must(ft.Estimate(ctx, in, run, 0, 0, trials, 4, seed)),
			must(ft.Estimate(ctx, in, run, 1, 0, trials, 4, seed)))
		requireOverlap(t, "bare adder", g,
			must(bare.Estimate(ctx, in, run, 0, 0, trials, 4, seed)),
			must(bare.Estimate(ctx, in, run, 1, 0, trials, 4, seed)))
	}
}

// TestDriversAcceptLanesEngine smoke-tests the four routed drivers with
// Engine set, checking table shape and the paper's qualitative claims.
func TestDriversAcceptLanesEngine(t *testing.T) {
	p := MCParams{Trials: 30000, Seed: 9, Engine: EngineLanes}
	if w := p.wideWords(); w != 1 {
		t.Fatalf("lanes runs %d-word blocks, want 1", w)
	}

	tb := mustTable(t)(RecoveryCtx(context.Background(), []float64{2e-3}, p, SweepOptions{}))
	if len(tb.Rows) != 1 {
		t.Fatalf("Recovery rows = %d", len(tb.Rows))
	}
	// Below threshold the bound must hold and the gadget must win.
	if tb.Rows[0][4] != "true" || tb.Rows[0][5] != "true" {
		t.Fatalf("lanes Recovery below threshold failed: %v", tb.Rows[0])
	}

	tb = mustTable(t)(LevelsCtx(context.Background(), []float64{2e-3}, 1, MCParams{Trials: 2000, Seed: 4, Engine: EngineLanes}, SweepOptions{}))
	if len(tb.Rows) != 2 {
		t.Fatalf("Levels rows = %d", len(tb.Rows))
	}

	tb = mustTable(t)(LocalCtx(context.Background(), []float64{1e-3}, MCParams{Trials: 2000, Seed: 5, Engine: EngineLanes}, SweepOptions{}))
	if len(tb.Rows) != 1 {
		t.Fatalf("Local rows = %d", len(tb.Rows))
	}

	tb = mustTable(t)(AdderModuleCtx(context.Background(), 2, []float64{2e-3}, MCParams{Trials: 5000, Seed: 6, Engine: EngineLanes}, SweepOptions{}))
	if len(tb.Rows) != 1 {
		t.Fatalf("AdderModule rows = %d", len(tb.Rows))
	}
}
