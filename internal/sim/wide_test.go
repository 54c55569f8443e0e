package sim

import (
	"context"
	"math/bits"
	"testing"

	"revft/internal/rng"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// wideRun is MonteCarloWideCtx under a background context, failing the
// test on error.
func wideRun(t *testing.T, trials, workers int, seed uint64, words int, batch WideBatchTrial) stats.Bernoulli {
	t.Helper()
	res, err := MonteCarloWideCtx(context.Background(), 0, trials, workers, seed, words, shared(batch))
	if err != nil {
		t.Fatal(err)
	}
	return res.Bernoulli
}

// shared is the batch factory that hands every worker the same batch,
// for test batches that keep no state.
func shared(batch WideBatchTrial) func() WideBatchTrial {
	return func() WideBatchTrial { return batch }
}

// TestMonteCarloWideMatchesLanesAtOneWord pins the 64-lane harness
// contract against a reference written out by hand: trial block b (of
// BlockTrials trials) runs on rng.New(rng.SplitMix(seed, b)), one batch
// per 64 of its trials, and the final block runs only the batches its
// trials need and counts only the lanes that are left. The words = 1
// harness must reproduce that bit for bit at every worker count.
func TestMonteCarloWideMatchesLanesAtOneWord(t *testing.T) {
	batch := func(r *rng.RNG, hit []uint64) { hit[0] = r.Uint64() }
	reference := func(trials int, seed uint64) (hits int) {
		hit := make([]uint64, 1)
		for b := 0; b*BlockTrials < trials; b++ {
			r := rng.New(rng.SplitMix(seed, uint64(b)))
			for n := min(BlockTrials, trials-b*BlockTrials); n > 0; n -= 64 {
				batch(r, hit)
				if n < 64 {
					hit[0] &= 1<<uint(n) - 1
				}
				hits += bits.OnesCount64(hit[0])
			}
		}
		return hits
	}
	for _, trials := range []int{64, 130, 1000, 20011} {
		for _, workers := range []int{1, 3} {
			got := wideRun(t, trials, workers, 42, 1, batch)
			if want := reference(trials, 42); got.Trials != trials || got.Successes != want {
				t.Fatalf("trials=%d workers=%d: harness %+v, reference %d hits", trials, workers, got, want)
			}
		}
	}
}

// TestLanesHarnessPartialBatchCountsExactTrials: with trials not a
// multiple of 64 and an all-hits batch on the 64-lane (words = 1) engine,
// the excess lanes of the final partial batch are masked out, so the hit
// count equals the trial count exactly.
func TestLanesHarnessPartialBatchCountsExactTrials(t *testing.T) {
	for _, trials := range []int{1, 63, 65, 130, 20011} {
		res := wideRun(t, trials, 1, 7, 1, func(r *rng.RNG, hit []uint64) { hit[0] = ^uint64(0) })
		if res.Trials != trials || res.Successes != trials {
			t.Fatalf("trials=%d: counted %d trials, %d hits; want %d of each",
				trials, res.Trials, res.Successes, trials)
		}
	}
}

// TestMonteCarloWidePartialBlockCountsExactTrials is the same property on
// the K-word engines: the partial final block's excess words and the
// excess lanes of its partial word are both masked.
func TestMonteCarloWidePartialBlockCountsExactTrials(t *testing.T) {
	allHits := func(r *rng.RNG, hit []uint64) {
		for i := range hit {
			hit[i] = ^uint64(0)
		}
	}
	for _, words := range []int{4, 8} {
		for _, trials := range []int{1, 63, 64, 65, 64*words - 1, 64*words + 1, 1000, 20011} {
			res := wideRun(t, trials, 1, 7, words, allHits)
			if res.Trials != trials || res.Successes != trials {
				t.Fatalf("words=%d trials=%d: counted %d trials, %d hits; want %d of each",
					words, trials, res.Trials, res.Successes, trials)
			}
		}
	}
}

// TestMonteCarloWideDeterminismContract: fixed (seed, words) reproduces
// exactly at any worker count; changing the seed moves the estimate.
func TestMonteCarloWideDeterminismContract(t *testing.T) {
	batch := func(r *rng.RNG, hit []uint64) {
		for i := range hit {
			hit[i] = r.Uint64() & r.Uint64() & r.Uint64() // p = 1/8 per lane
		}
	}
	a := wideRun(t, 30000, 4, 11, 4, batch)
	b := wideRun(t, 30000, 1, 11, 4, batch)
	if a != b {
		t.Fatalf("same spec, different results: %+v vs %+v", a, b)
	}
	if c := wideRun(t, 30000, 4, 12, 4, batch); c == a {
		t.Fatal("different seeds produced identical counts")
	}
}

// TestMonteCarloWideRejectsBadWords checks the words validation surfaces
// as an error on the Ctx path: a batch must be at least one word and
// divide the block.
func TestMonteCarloWideRejectsBadWords(t *testing.T) {
	for _, words := range []int{0, 3, 16} {
		if _, err := MonteCarloWideCtx(context.Background(), 0, 100, 1, 1, words, shared(func(r *rng.RNG, hit []uint64) {})); err == nil {
			t.Errorf("words = %d was not rejected", words)
		}
	}
}

// TestMonteCarloWideTelemetrySlotsVsTrials pins the slot-vs-trial
// accounting: lanes.trials counts counted trials, lanes.slots counts
// simulated lane slots including the masked excess of the partial final
// block.
func TestMonteCarloWideTelemetrySlotsVsTrials(t *testing.T) {
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	const words, trials = 4, 300 // two 256-lane batches: 512 slots
	res, err := MonteCarloWideCtx(ctx, 0, trials, 1, 5, words, shared(func(r *rng.RNG, hit []uint64) {
		for i := range hit {
			hit[i] = ^uint64(0)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != trials || res.Successes != trials {
		t.Fatalf("counted %d/%d, want %d/%d", res.Successes, res.Trials, trials, trials)
	}
	if got := reg.Counter("lanes.trials").Load(); got != trials {
		t.Fatalf("lanes.trials = %d, want %d", got, trials)
	}
	if got := reg.Counter("lanes.slots").Load(); got != 512 {
		t.Fatalf("lanes.slots = %d, want 512", got)
	}
}

func TestMaskLanes(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want [3]uint64
	}{
		{0, [3]uint64{0, 0, 0}},
		{1, [3]uint64{1, 0, 0}},
		{64, [3]uint64{^uint64(0), 0, 0}},
		{65, [3]uint64{^uint64(0), 1, 0}},
		{128, [3]uint64{^uint64(0), ^uint64(0), 0}},
		{192, [3]uint64{^uint64(0), ^uint64(0), ^uint64(0)}},
	} {
		hit := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
		MaskLanes(hit, tc.n)
		if [3]uint64{hit[0], hit[1], hit[2]} != tc.want {
			t.Fatalf("MaskLanes(n=%d) = %x, want %x", tc.n, hit, tc.want)
		}
	}
}
