package sim

import (
	"context"
	"testing"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/stats"
)

// Determinism contract for both Monte Carlo harnesses: a fixed
// (seed, workers) pair is bit-identical across runs, distinct seeds
// differ, and distinct worker counts — which re-partition the jumped RNG
// streams — stay statistically consistent.

// determinismCircuit is a small noisy trial with realistic RNG
// consumption: three MAJ layers on six wires.
func determinismCircuit() *circuit.Circuit {
	c := circuit.New(6)
	c.MAJ(0, 1, 2).MAJ(3, 4, 5).MAJ(0, 3, 1).MAJ(2, 4, 5)
	return c
}

func checkHarnessDeterminism(t *testing.T, name string, run func(trials, workers int, seed uint64) stats.Bernoulli) {
	t.Helper()
	const trials = 30000
	for _, w := range []int{1, 3, 8} {
		a, b := run(trials, w, 42), run(trials, w, 42)
		if a != b {
			t.Errorf("%s: workers=%d seed=42 gave %v then %v", name, w, a, b)
		}
		if c := run(trials, w, 43); a == c {
			t.Errorf("%s: workers=%d seeds 42 and 43 gave identical %v (suspicious)", name, w, a)
		}
	}
	// Different worker counts repartition the streams, so the estimates
	// differ bit-for-bit but must agree statistically: every pair of
	// wide (z = 3.5) Wilson intervals overlaps.
	workerCounts := []int{1, 2, 5, 16}
	ests := make([]stats.Bernoulli, len(workerCounts))
	for i, w := range workerCounts {
		ests[i] = run(trials, w, 42)
		if ests[i].Trials != trials {
			t.Fatalf("%s: workers=%d ran %d trials, want %d", name, w, ests[i].Trials, trials)
		}
	}
	for i := range ests {
		for j := i + 1; j < len(ests); j++ {
			lo1, hi1 := ests[i].Wilson(3.5)
			lo2, hi2 := ests[j].Wilson(3.5)
			if lo1 > hi2 || lo2 > hi1 {
				t.Errorf("%s: workers=%d (%v) and workers=%d (%v) are statistically inconsistent",
					name, workerCounts[i], ests[i], workerCounts[j], ests[j])
			}
		}
	}
}

func TestMonteCarloDeterminismContract(t *testing.T) {
	c := determinismCircuit()
	m := noise.Uniform(0.02)
	checkHarnessDeterminism(t, "MonteCarlo", func(trials, workers int, seed uint64) stats.Bernoulli {
		return MonteCarlo(trials, workers, seed, func(r *rng.RNG) bool {
			st := bitvec.New(c.Width())
			RunNoisy(c, st, m, r)
			return st.Uint(0, c.Width()) != c.Eval(0)
		})
	})
}

// lanesFailBatch is the 64-lane (K = 1) batch trial of c under m:
// every lane starts at input 0 and fails when any wire ends off c.Eval(0).
func lanesFailBatch(c *circuit.Circuit, m noise.Model) WideBatchTrial {
	prog := lanes.CompileWide(c, m, 1)
	want := c.Eval(0)
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(c.Width(), 1)
		prog.Run(st, r)
		hit[0] = 0
		for w := 0; w < c.Width(); w++ {
			hit[0] |= st.W[w] ^ lanes.Broadcast(want>>uint(w)&1 == 1)
		}
	}
}

// lanesRun is MonteCarloWideCtx at words = 1 under a background context,
// failing the test on error.
func lanesRun(t *testing.T, trials, workers int, seed uint64, batch WideBatchTrial) stats.Bernoulli {
	t.Helper()
	res, err := MonteCarloWideCtx(context.Background(), trials, workers, seed, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	return res.Bernoulli
}

func TestLanesHarnessDeterminismContract(t *testing.T) {
	batch := lanesFailBatch(determinismCircuit(), noise.Uniform(0.02))
	checkHarnessDeterminism(t, "MonteCarloWideCtx(words=1)", func(trials, workers int, seed uint64) stats.Bernoulli {
		return lanesRun(t, trials, workers, seed, batch)
	})
}

// TestMonteCarloEnginesAgree pins the two harnesses against each other on
// the same trial semantics: the scalar and 64-lane estimates of one noisy
// circuit's failure rate must have overlapping 95% Wilson intervals.
func TestMonteCarloEnginesAgree(t *testing.T) {
	c := determinismCircuit()
	m := noise.Uniform(0.02)
	want := c.Eval(0)
	const trials = 60000
	scalar := MonteCarlo(trials, 4, 42, func(r *rng.RNG) bool {
		st := bitvec.New(c.Width())
		RunNoisy(c, st, m, r)
		return st.Uint(0, c.Width()) != want
	})
	lane := lanesRun(t, trials, 4, 42, lanesFailBatch(c, m))
	lo1, hi1 := scalar.Wilson(1.96)
	lo2, hi2 := lane.Wilson(1.96)
	if lo1 > hi2 || lo2 > hi1 {
		t.Fatalf("engines disagree: scalar %v, lanes %v", scalar, lane)
	}
}

func TestLanesHarnessEdges(t *testing.T) {
	allFail := func(_ *rng.RNG, hit []uint64) { hit[0] = ^uint64(0) }
	if got := lanesRun(t, 0, 4, 1, allFail); got.Trials != 0 {
		t.Fatalf("zero trials gave %v", got)
	}
	// Partial final batch: only the counted lanes contribute.
	got := lanesRun(t, 3, 16, 1, allFail)
	if got.Trials != 3 || got.Successes != 3 {
		t.Fatalf("tiny run gave %v", got)
	}
	// workers <= 0 uses GOMAXPROCS.
	got = lanesRun(t, 100, 0, 1, func(_ *rng.RNG, hit []uint64) { hit[0] = 0 })
	if got.Trials != 100 || got.Successes != 0 {
		t.Fatalf("auto workers gave %v", got)
	}
	// 7 workers, 1000 trials: remainder spread; every trial counted once.
	got = lanesRun(t, 1000, 7, 9, allFail)
	if got.Successes != 1000 {
		t.Fatalf("counted %d trials, want 1000", got.Successes)
	}
}
