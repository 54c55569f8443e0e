package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/stats"
)

// Determinism contract for both Monte Carlo harnesses: a fixed
// (seed, trials) is bit-identical across runs and across worker counts,
// distinct seeds differ, a run split at a block boundary equals the
// whole run, and a cancelled run is a prefix of whole blocks.

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
	// Blocks are seeded by index and claimed from one counter, so the
	// worker count decides only the speed, never a single count.
	want := run(trials, 1, 42)
	for _, w := range []int{2, 5, 16} {
		if got := run(trials, w, 42); got != want {
			t.Errorf("%s: workers=%d gave %v, workers=1 gave %v", name, w, got, want)
		}
	}
}

func TestMonteCarloDeterminismContract(t *testing.T) {
	c := determinismCircuit()
	m := noise.Uniform(0.02)
	trial := noisyTrial(c, m)
	checkHarnessDeterminism(t, "MonteCarlo", func(trials, workers int, seed uint64) stats.Bernoulli {
		return MonteCarlo(trials, workers, seed, trial)
	})
}

// lanesRun is MonteCarloWideCtx at words = 1 under a background context,
// failing the test on error.
func lanesRun(t *testing.T, trials, workers int, seed uint64, batch WideBatchTrial) stats.Bernoulli {
	t.Helper()
	res, err := MonteCarloWideCtx(context.Background(), 0, trials, workers, seed, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	return res.Bernoulli
}

func TestLanesHarnessDeterminismContract(t *testing.T) {
	batch := wideFailBatch(determinismCircuit(), noise.Uniform(0.02), 1)
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
	const trials = 60000
	scalar := MonteCarlo(trials, 4, 42, noisyTrial(c, m))
	lane := lanesRun(t, trials, 4, 42, wideFailBatch(c, m, 1))
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
	// 7 workers, 1000 trials in two blocks: every trial counted once.
	got = lanesRun(t, 1000, 7, 9, allFail)
	if got.Successes != 1000 {
		t.Fatalf("counted %d trials, want 1000", got.Successes)
	}
}

// noisyTrial is determinismCircuit's scalar trial under m: input 0,
// failure when any wire ends off c.Eval(0).
func noisyTrial(c *circuit.Circuit, m noise.Model) func(*rng.RNG) bool {
	want := c.Eval(0)
	return func(r *rng.RNG) bool {
		st := bitvec.New(c.Width())
		RunNoisy(c, st, m, r)
		return st.Uint(0, c.Width()) != want
	}
}

// blockEngines runs one estimate of determinismCircuit on each engine
// shape: scalar, and lane batches of 1, 4 and 8 words. tick, when
// non-nil, is called before every scalar trial and every lane batch.
func blockEngines(tick func()) map[string]func(ctx context.Context, start, trials, workers int) (Result, error) {
	c, m := determinismCircuit(), noise.Uniform(0.02)
	trial := noisyTrial(c, m)
	if tick == nil {
		tick = func() {}
	}
	out := map[string]func(ctx context.Context, start, trials, workers int) (Result, error){
		"scalar": func(ctx context.Context, start, trials, workers int) (Result, error) {
			return MonteCarloCtx(ctx, start, trials, workers, 42, func(r *rng.RNG) bool {
				tick()
				return trial(r)
			})
		},
	}
	for _, words := range []int{1, 4, 8} {
		batch := wideFailBatch(c, m, words)
		out[fmt.Sprintf("words=%d", words)] = func(ctx context.Context, start, trials, workers int) (Result, error) {
			return MonteCarloWideCtx(ctx, start, trials, workers, 42, words, func(r *rng.RNG, hit []uint64) {
				tick()
				batch(r, hit)
			})
		}
	}
	return out
}

// wideFailBatch is the words-wide batch trial of c under m: every lane
// starts at input 0 and fails when any wire ends off c.Eval(0).
func wideFailBatch(c *circuit.Circuit, m noise.Model, words int) WideBatchTrial {
	prog := lanes.CompileWide(c, m, words)
	want := c.Eval(0)
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(c.Width(), words)
		prog.Run(st, r)
		for k := range hit {
			hit[k] = 0
			for w := 0; w < c.Width(); w++ {
				hit[k] |= st.Wire(w)[k] ^ lanes.Broadcast(want>>uint(w)&1 == 1)
			}
		}
	}
}

// TestBlockSplitEqualsWhole: trials [0, n) in one call equal [0, m) plus
// [m, n) for every block-aligned m, on every engine and at any worker
// count — the property adaptive chunks rest on. A start off a block
// boundary is an error.
func TestBlockSplitEqualsWhole(t *testing.T) {
	const n = 5*BlockTrials + 300 // the final block is masked
	for name, run := range blockEngines(nil) {
		whole, err := run(context.Background(), 0, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{BlockTrials, 3 * BlockTrials, 5 * BlockTrials} {
			for _, w := range []int{1, 3} {
				a, err := run(context.Background(), 0, m, w)
				if err != nil {
					t.Fatal(err)
				}
				b, err := run(context.Background(), m, n-m, w)
				if err != nil {
					t.Fatal(err)
				}
				a.Add(b.Successes, b.Trials)
				if a.Bernoulli != whole.Bernoulli {
					t.Errorf("%s: [0,%d)+[%d,%d) at workers=%d gave %v, whole run %v", name, m, m, n, w, a.Bernoulli, whole.Bernoulli)
				}
			}
		}
		if _, err := run(context.Background(), BlockTrials/2, n, 1); err == nil {
			t.Errorf("%s: a start inside a block was accepted", name)
		}
	}
}

// TestCancelIsBlockPrefix: cancelling mid-run returns a partial estimate
// of whole blocks whose counts equal the fixed run of that many trials,
// whatever the worker count.
func TestCancelIsBlockPrefix(t *testing.T) {
	fixedRuns := blockEngines(nil)
	for _, workers := range []int{1, 4} {
		var ticks atomic.Int64
		var cancel context.CancelFunc
		runs := blockEngines(func() {
			// Cancel partway into the third block's worth of calls.
			if ticks.Add(1) == 2*BlockTrials+BlockTrials/64 {
				cancel()
			}
		})
		for name, run := range runs {
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			ticks.Store(0)
			res, err := run(ctx, 0, 1<<30, workers)
			cancel()
			if !errors.Is(err, context.Canceled) || !res.Partial {
				t.Fatalf("%s workers=%d: err = %v, partial = %v; want a cancelled partial run", name, workers, err, res.Partial)
			}
			if res.Trials == 0 || res.Trials%BlockTrials != 0 {
				t.Fatalf("%s workers=%d: %d trials, want a positive whole number of blocks", name, workers, res.Trials)
			}
			fixed, err := fixedRuns[name](context.Background(), 0, res.Trials, 2)
			if err != nil {
				t.Fatal(err)
			}
			if fixed.Bernoulli != res.Bernoulli {
				t.Errorf("%s workers=%d: cancelled run %v, fixed run of %d trials %v", name, workers, res.Bernoulli, res.Trials, fixed.Bernoulli)
			}
		}
	}
}
