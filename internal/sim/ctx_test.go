package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revft/internal/rng"
	"revft/internal/telemetry"
)

// cheapTrial is a realistic-cost trial: a few RNG draws and a branch.
func cheapTrial(r *rng.RNG) bool {
	return r.Uint64()&0xff == 0
}

// cheapBatch is the 64-lane (words = 1) analogue of cheapTrial.
func cheapBatch(r *rng.RNG, hit []uint64) {
	hit[0] = r.Uint64() & r.Uint64() & r.Uint64()
}

// TestCtxEnginesMatchLegacy: a completed context run is bit-identical to
// the context-free MonteCarlo for the same (trials, seed), whatever the
// worker counts of either.
func TestCtxEnginesMatchLegacy(t *testing.T) {
	const trials = 30000
	legacy := MonteCarlo(trials, 2, 42, cheapTrial)
	for _, w := range []int{1, 3, 8} {
		res, err := MonteCarloCtx(context.Background(), 0, trials, w, 42, cheapTrial)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", w, err)
		}
		if res.Partial {
			t.Errorf("workers=%d: completed run marked partial", w)
		}
		if res.Bernoulli != legacy {
			t.Errorf("workers=%d: ctx %v != legacy %v", w, res.Bernoulli, legacy)
		}
	}
}

// TestMonteCarloCtxCancel: cancelling mid-run returns promptly with the
// whole blocks completed so far and the context's error.
func TestMonteCarloCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	// A huge budget that cannot complete before the cancel lands.
	const trials = 1 << 40
	go func() {
		<-started
		cancel()
	}()
	begin := time.Now()
	res, err := MonteCarloCtx(ctx, 0, trials, 4, 7, func(r *rng.RNG) bool {
		once.Do(func() { close(started) })
		return cheapTrial(r)
	})
	if elapsed := time.Since(begin); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Partial {
		t.Error("cancelled run not marked partial")
	}
	if res.Trials <= 0 || res.Trials >= trials {
		t.Errorf("partial trials = %d, want in (0, %d)", res.Trials, trials)
	}
	if res.Successes > res.Trials {
		t.Errorf("successes %d > trials %d", res.Successes, res.Trials)
	}
	if res.Trials%BlockTrials != 0 {
		t.Errorf("partial trials %d not a whole number of blocks", res.Trials)
	}
}

// TestMonteCarloCtxPreCancelled: a context that is already cancelled runs
// no trials.
func TestMonteCarloCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MonteCarloCtx(ctx, 0, 100000, 4, 1, cheapTrial)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Partial {
		t.Error("pre-cancelled run not marked partial")
	}
	// Workers check before every batch, so at most a few stale batches
	// could slip in; with cancellation before the call, none should.
	if res.Trials != 0 {
		t.Errorf("pre-cancelled run completed %d trials, want 0", res.Trials)
	}
}

// TestLanesHarnessCtxDeadline: a deadline cancels the 64-lane engine
// between blocks.
func TestLanesHarnessCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	const trials = 1 << 40
	res, err := MonteCarloWideCtx(ctx, 0, trials, 2, 3, 1, func(r *rng.RNG, hit []uint64) {
		time.Sleep(100 * time.Microsecond)
		cheapBatch(r, hit)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !res.Partial || res.Trials >= trials {
		t.Errorf("deadline run: partial=%v trials=%d", res.Partial, res.Trials)
	}
	if res.Trials%BlockTrials != 0 {
		// Every claimed block runs to completion.
		t.Errorf("partial lane trials %d not a multiple of %d", res.Trials, BlockTrials)
	}
}

// panicValue is the trigger predicate used by the panic tests: panic on
// RNG words whose low 12 bits are zero (about 1 in 4096 trials).
func panicValue(v uint64) bool { return v&0xfff == 0 }

// TestTrialPanicError: a panicking trial surfaces as *TrialPanicError
// naming the seed and block that reproduce it, the same block at every
// worker count, and the completed blocks' counts survive.
func TestTrialPanicError(t *testing.T) {
	const seed = 11
	trial := func(r *rng.RNG) bool {
		v := r.Uint64()
		if panicValue(v) {
			panic("injected fault")
		}
		return v&1 == 0
	}
	var block int
	for _, workers := range []int{1, 3, 8} {
		res, err := MonteCarloCtx(context.Background(), 0, 100000, workers, seed, trial)
		var pe *TrialPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *TrialPanicError", workers, err, err)
		}
		if workers == 1 {
			block = pe.Block
			if pe.Worker != 0 {
				t.Errorf("Worker = %d, want 0 (single-worker run)", pe.Worker)
			}
			if res.Trials != block*BlockTrials {
				t.Errorf("single worker counted %d trials before block %d, want %d", res.Trials, block, block*BlockTrials)
			}
		}
		if pe.Block != block || pe.Seed != seed {
			t.Errorf("workers=%d: panic at (seed %d, block %d), want (seed %d, block %d)", workers, pe.Seed, pe.Block, seed, block)
		}
		if pe.Value != "injected fault" {
			t.Errorf("Value = %v, want the panic value", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Error("Stack is empty")
		}
		if !res.Partial || res.Trials%BlockTrials != 0 {
			t.Errorf("workers=%d: panicked run kept %d trials (partial %v), want whole blocks", workers, res.Trials, res.Partial)
		}
	}

	// Reproducibility from (seed, block) alone: the block's stream is
	// rng.New(rng.SplitMix(seed, block)), and its trials draw one word
	// each, so the trigger is among its first BlockTrials words — and no
	// earlier block's stream holds one.
	trigger := func(b int) int {
		r := rng.New(rng.SplitMix(seed, uint64(b)))
		for i := 0; i < BlockTrials; i++ {
			if panicValue(r.Uint64()) {
				return i
			}
		}
		return -1
	}
	if trigger(block) < 0 {
		t.Errorf("block %d's stream holds no panicking trial", block)
	}
	for b := 0; b < block; b++ {
		if trigger(b) >= 0 {
			t.Errorf("block %d panics before the reported block %d", b, block)
		}
	}
}

// TestTrialPanicNoDeadlock: every worker panicking immediately must not
// deadlock or crash; exactly one panic is reported and its worker index is
// in range.
func TestTrialPanicNoDeadlock(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := MonteCarloCtx(context.Background(), 0, 1<<20, 8, 5, func(r *rng.RNG) bool {
			panic("boom")
		})
		var pe *TrialPanicError
		if !errors.As(err, &pe) {
			t.Errorf("err = %v, want *TrialPanicError", err)
			return
		}
		if pe.Worker < 0 || pe.Worker >= 8 {
			t.Errorf("Worker = %d out of range", pe.Worker)
		}
		if pe.Block != 0 {
			t.Errorf("Block = %d, want 0: every block panics and the lowest is reported", pe.Block)
		}
		if !res.Partial {
			t.Error("panicked run not marked partial")
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("deadlock: MonteCarloCtx did not return")
	}
}

// TestLanesTrialPanicError: panic isolation works on the lanes engine too.
func TestLanesTrialPanicError(t *testing.T) {
	_, err := MonteCarloWideCtx(context.Background(), 0, 1<<20, 3, 9, 1, func(r *rng.RNG, hit []uint64) {
		v := r.Uint64()
		if panicValue(v) {
			panic(v)
		}
		hit[0] = v
	})
	var pe *TrialPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *TrialPanicError", err)
	}
	if pe.Worker < 0 || pe.Worker >= 3 || pe.Seed != 9 {
		t.Errorf("bad provenance: worker=%d seed=%d", pe.Worker, pe.Seed)
	}
}

// TestLegacyEnginePanicPropagates: the non-ctx wrappers re-raise a trial
// panic as a *TrialPanicError so callers that cannot handle errors still
// crash loudly with provenance attached.
func TestLegacyEnginePanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if _, ok := r.(*TrialPanicError); !ok {
			t.Errorf("recovered %v (%T), want *TrialPanicError", r, r)
		}
	}()
	MonteCarlo(1000, 1, 1, func(r *rng.RNG) bool { panic("boom") })
}

// TestCtxPartialMaskTruncation: sanity-check the lanes tail-batch mask
// under ctx: a full run counts every trial exactly once.
func TestCtxPartialMaskTruncation(t *testing.T) {
	// 100 trials = one full batch + a 36-lane tail of block 0.
	res, err := MonteCarloWideCtx(context.Background(), 0, 100, 1, 2, 1, func(r *rng.RNG, hit []uint64) {
		hit[0] = ^uint64(0) // every lane fails
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 100 || res.Successes != 100 {
		t.Errorf("got %d/%d, want 100/100", res.Successes, res.Trials)
	}
	if bits.OnesCount64(1<<36-1) != 36 {
		t.Fatal("mask arithmetic broken")
	}
}

// TestTelemetryCountsMatchResultOnCancel is the no-drift contract: when a
// run is cancelled mid-batch, the registry's trial counter must equal the
// partial Result's trial count exactly — the deferred per-worker flush may
// not lose or double-count the in-flight batch. Exercised on both engines,
// across worker counts, with a mid-run cancel.
func TestTelemetryCountsMatchResultOnCancel(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, trials, workers int) (Result, error)
	}{
		{"scalar", func(ctx context.Context, trials, workers int) (Result, error) {
			return MonteCarloCtx(ctx, 0, trials, workers, 7, cheapTrial)
		}},
		{"lanes", func(ctx context.Context, trials, workers int) (Result, error) {
			return MonteCarloWideCtx(ctx, 0, trials, workers, 7, 1, cheapBatch)
		}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				reg := telemetry.New()
				ctx, cancel := context.WithCancel(telemetry.NewContext(context.Background(), reg))
				defer cancel()
				go func() {
					// Let some batches complete, then cancel mid-run.
					for reg.Counter(telemetry.TrialsMetric).Load() == 0 {
						time.Sleep(100 * time.Microsecond)
					}
					cancel()
				}()
				res, err := tc.run(ctx, 1<<40, workers)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if !res.Partial {
					t.Fatal("mid-run cancel should yield a partial result")
				}
				got := reg.Counter(telemetry.TrialsMetric).Load()
				if got != int64(res.Trials) {
					t.Errorf("registry counted %d trials, result counted %d (drift %d)",
						got, res.Trials, got-int64(res.Trials))
				}
			})
		}
	}
}

// TestTelemetryCountsMatchResultComplete: same contract on a run that
// finishes its full budget.
func TestTelemetryCountsMatchResultComplete(t *testing.T) {
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	const trials = 100000
	res, err := MonteCarloWideCtx(ctx, 0, trials, 3, 7, 1, cheapBatch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != trials {
		t.Fatalf("completed run counted %d trials", res.Trials)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.TrialsMetric]; got != trials {
		t.Errorf("registry sim.trials = %d, want %d", got, trials)
	}
	if got := snap.Counters["lanes.trials"]; got != trials {
		t.Errorf("registry lanes.trials = %d, want %d", got, trials)
	}
	// Slots count whole 64-lane batches, so slots >= trials and
	// utilization = trials/slots is in (0, 1].
	slots := snap.Counters["lanes.slots"]
	if slots < trials || slots%64 != 0 {
		t.Errorf("lanes.slots = %d, want a multiple of 64 >= %d", slots, trials)
	}
	// Per-worker counters must sum to the global count.
	var perWorker int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sim.worker.") && strings.HasSuffix(name, ".trials") {
			perWorker += v
		}
	}
	if perWorker != trials {
		t.Errorf("per-worker trial counters sum to %d, want %d", perWorker, trials)
	}
}

// TestTelemetryPanicCounter: a recovered trial panic increments the
// worker+seed-keyed panic counter, and the registry's trial count still
// matches the partial result.
func TestTelemetryPanicCounter(t *testing.T) {
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	var fired atomic.Bool
	res, err := MonteCarloCtx(ctx, 0, 1<<40, 2, 99, func(r *rng.RNG) bool {
		if fired.Swap(true) {
			return cheapTrial(r)
		}
		panic("boom")
	})
	var pe *TrialPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *TrialPanicError", err)
	}
	snap := reg.Snapshot()
	key := fmt.Sprintf("sim.panics.worker.%02d.seed.99", pe.Worker)
	if got := snap.Counters[key]; got != 1 {
		t.Errorf("%s = %d, want 1", key, got)
	}
	if got := snap.Counters[telemetry.TrialsMetric]; got != int64(res.Trials) {
		t.Errorf("registry counted %d trials, result %d", got, res.Trials)
	}
}

// TestBlocksAllocateNothing: reseeding and counting a block allocates
// nothing on either engine, so a run of many blocks allocates exactly
// what a one-block run does.
func TestBlocksAllocateNothing(t *testing.T) {
	engines := map[string]func(trials int) (Result, error){
		"scalar": func(trials int) (Result, error) {
			return MonteCarloCtx(context.Background(), 0, trials, 1, 3, cheapTrial)
		},
		"lanes": func(trials int) (Result, error) {
			return MonteCarloWideCtx(context.Background(), 0, trials, 1, 3, 1, cheapBatch)
		},
	}
	for name, run := range engines {
		allocs := func(blocks int) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := run(blocks * BlockTrials); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, many := allocs(1), allocs(64); many != one {
			t.Errorf("%s: 64 blocks allocate %v times, one block %v", name, many, one)
		}
	}
}
