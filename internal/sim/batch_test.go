package sim

import (
	"context"
	"errors"
	"math/bits"
	"testing"

	"revft/internal/rng"
)

// deferBatch is a WideBatch that defers every lane: a block's hits are
// the set bits among the first n of its 512 drawn lane bits, resolved
// only when queue lanes are pending or on Flush. panicAt makes Flush
// panic once the queue holds that block.
type deferBatch struct {
	queue   int // lanes queued
	hits    int // their hits
	first   int // lowest pending block, -1
	max     int
	panicAt int
	seen    []int
}

func (b *deferBatch) Block(r *rng.RNG, block, n int) (hits, batches int) {
	for k := 0; k < BlockTrials/64; k++ {
		w := r.Uint64()
		if lo := n - 64*k; lo < 64 {
			w &= uint64(1)<<uint(max(lo, 0)) - 1
		}
		b.hits += bits.OnesCount64(w)
	}
	if b.first < 0 {
		b.first = block
	}
	b.seen = append(b.seen, block)
	b.queue += n
	if b.queue >= b.max {
		hits = b.Flush()
	}
	return hits, 1
}

func (b *deferBatch) Flush() int {
	for _, blk := range b.seen {
		if blk == b.panicAt {
			panic("flush")
		}
	}
	h := b.hits
	b.queue, b.hits, b.first, b.seen = 0, 0, -1, b.seen[:0]
	return h
}

func (b *deferBatch) Pending() int { return b.first }

// eagerBatch is deferBatch's WideBatchTrial: the same lane bits, counted
// at once.
func eagerBatch(r *rng.RNG, hit []uint64) {
	for k := range hit {
		hit[k] = r.Uint64()
	}
}

// TestBatchDeferralExact: a batch that resolves its lanes blocks later,
// or only on Flush, counts exactly what an eager batch counts, at every
// worker count, from a nonzero start, with a partial final block.
func TestBatchDeferralExact(t *testing.T) {
	const start, trials = 3 * BlockTrials, 40*BlockTrials + 99
	want, err := MonteCarloWideCtx(context.Background(), start, trials, 1, 11, 8, shared(eagerBatch))
	if err != nil {
		t.Fatal(err)
	}
	for _, queue := range []int{1, 3 * BlockTrials, 1 << 30} {
		for _, workers := range []int{1, 2, 3} {
			got, err := MonteCarloBatchCtx(context.Background(), start, trials, workers, 11, 8, func() WideBatch {
				return &deferBatch{first: -1, max: queue, panicAt: -1}
			})
			if err != nil || got != want {
				t.Errorf("queue %d, %d workers: %+v, err %v; eager %+v", queue, workers, got, err, want)
			}
		}
	}
}

// TestBatchDeferralCancelCountsWholeBlocks: a cancelled run flushes each
// worker's queue before publishing, so it counts whole blocks whose hits
// equal an uncancelled run over the same trials.
func TestBatchDeferralCancelCountsWholeBlocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	blocks := 0
	res, err := MonteCarloBatchCtx(ctx, 0, 1000*BlockTrials, 1, 5, 8, func() WideBatch {
		return &cancelBatch{deferBatch{first: -1, max: 1 << 30, panicAt: -1}, &blocks, cancel}
	})
	if !errors.Is(err, context.Canceled) || !res.Partial {
		t.Fatalf("err %v, partial %v; want a cancelled partial run", err, res.Partial)
	}
	if res.Trials != blocks*BlockTrials || blocks == 0 {
		t.Fatalf("counted %d trials after %d blocks", res.Trials, blocks)
	}
	want, _ := MonteCarloWideCtx(context.Background(), 0, res.Trials, 1, 5, 8, shared(eagerBatch))
	if res.Bernoulli != want.Bernoulli {
		t.Errorf("cancelled run %+v, the same blocks uncancelled %+v", res.Bernoulli, want.Bernoulli)
	}
}

// cancelBatch cancels its run after its fifth block.
type cancelBatch struct {
	deferBatch
	blocks *int
	cancel func()
}

func (b *cancelBatch) Block(r *rng.RNG, block, n int) (int, int) {
	if *b.blocks++; *b.blocks == 5 {
		b.cancel()
	}
	return b.deferBatch.Block(r, block, n)
}

// TestBatchFlushPanicNamesLowestPendingBlock: a panic in the worker's
// final Flush is reported against the lowest block still queued, and the
// queued blocks are not counted.
func TestBatchFlushPanicNamesLowestPendingBlock(t *testing.T) {
	res, err := MonteCarloBatchCtx(context.Background(), 2*BlockTrials, 10*BlockTrials, 1, 3, 8, func() WideBatch {
		return &deferBatch{first: -1, max: 4 * BlockTrials, panicAt: 10}
	})
	var pe *TrialPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *TrialPanicError", err)
	}
	// Blocks 2–5 and 6–9 flush whole; 10 and 11 are queued when the
	// final Flush panics.
	if pe.Block != 10 {
		t.Errorf("panic named block %d, want 10, the lowest pending", pe.Block)
	}
	if res.Trials != 8*BlockTrials || !res.Partial {
		t.Errorf("counted %d trials (partial %v), want the 8 flushed blocks", res.Trials, res.Partial)
	}
}
