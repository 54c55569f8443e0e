package sim

// Context-aware Monte Carlo engines: the cancellable, panic-isolating
// block harness behind the scalar and lane engines. Long sweeps near
// threshold run minutes to hours, so these let a deadline or SIGINT stop
// a run between trial blocks and still hand back the whole blocks
// completed so far, and they convert a panicking trial into a typed,
// reproducible error instead of crashing the process.
//
// The engines report to the context's telemetry registry: trials
// globally and per worker, sampled batch latency, per-worker wall time,
// lane-slot utilization, and panic counts. Without one every metric call
// is a pointer-test no-op; a worker's counts are flushed every few
// blocks, so the hot trial loop never takes a shared atomic per trial.

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"revft/internal/rng"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// BlockTrials is the size of the trial block, the one unit of randomness,
// scheduling and cancellation: trial t of an estimate is in block
// t/BlockTrials, and block b runs on rng.New(rng.SplitMix(seed, b)).
// Workers claim blocks from one counter and finish every block they
// claim, so counts never depend on the worker count, [0, n) equals
// [0, m) then [m, n) for block-aligned m, and a cancelled run is a prefix
// of whole blocks. A block is one 512-lane batch, or eight 64-lane ones.
const BlockTrials = 512

// Result is the outcome of a context-aware Monte Carlo run: the Bernoulli
// estimate over the trials that actually completed, plus whether the run
// fell short of its requested budget.
type Result struct {
	stats.Bernoulli
	// Partial is true when fewer than the requested trials completed,
	// because the context was cancelled or a worker trial panicked.
	// A partial estimate is still unbiased over the trials it counts.
	Partial bool
}

// TrialPanicError reports a panic recovered inside a Monte Carlo trial;
// Seed and Block reproduce it at any worker count.
type TrialPanicError struct {
	Seed   uint64 // the estimate's seed
	Block  int    // index of the block whose trial panicked
	Worker int    // the worker that ran the block; not needed to reproduce it
	Value  any    // the recovered panic value
	Stack  []byte // stack trace captured at recovery
}

func (e *TrialPanicError) Error() string {
	return fmt.Sprintf("sim: trial panic in block %d (seed %d, stream = rng.SplitMix(seed, %d)): %v",
		e.Block, e.Seed, e.Block, e.Value)
}

// latSampleMask selects which blocks are wall-clock timed for the batch
// latency histogram: every 16th, so the two time.Now calls are amortized
// to ~nothing while the sampled distribution still fills quickly.
const latSampleMask = 15

// workerInstr is one worker's telemetry handle set and its unpublished
// counts. The zero handles (all nil) make every record a no-op, which is
// how uninstrumented runs pay nothing.
type workerInstr struct {
	trials  *telemetry.Counter   // telemetry.TrialsMetric: global completed trials
	wtrials *telemetry.Counter   // this worker's completed trials
	batches *telemetry.Counter   // lane batches, or scalar blocks, completed
	lanesTr *telemetry.Counter   // lane engines only: counted lane trials
	slots   *telemetry.Counter   // lane engines only: simulated lane slots (see MonteCarloWideCtx)
	lat     *telemetry.Histogram // sampled batch latency, seconds

	// Counts not yet added to the counters above; flush publishes them.
	nTrials, nBatches, nSlots int64
}

func (wi *workerInstr) flush() {
	wi.trials.Add(wi.nTrials)
	wi.wtrials.Add(wi.nTrials)
	wi.lanesTr.Add(wi.nTrials)
	wi.batches.Add(wi.nBatches)
	wi.slots.Add(wi.nSlots)
	wi.nTrials, wi.nBatches, wi.nSlots = 0, 0, 0
}

// A WideBatch is one worker's lane engine under MonteCarloBatchCtx. Block
// runs the batches of the first n trials (0 < n <= BlockTrials) of block
// on r, freshly seeded for that block; it never counts a lane past n. It
// may defer lanes to a queue and resolve them in a later Block or in
// Flush; each returns the hits it resolved, of any block, and Block the
// number of batches it ran. Pending returns the lowest block with a
// deferred lane, or -1 when none is. Each worker builds its own batch, so
// it may keep state and buffers across blocks.
type WideBatch interface {
	Block(r *rng.RNG, block, n int) (hits, batches int)
	Flush() int
	Pending() int
}

// scalarCounter is the scalar engine's counter: one trial at a time,
// nothing deferred.
type scalarCounter func(r *rng.RNG) bool

func (trial scalarCounter) Block(r *rng.RNG, _, n int) (h, _ int) {
	for i := 0; i < n; i++ {
		if trial(r) {
			h++
		}
	}
	return h, 1
}

func (scalarCounter) Flush() int   { return 0 }
func (scalarCounter) Pending() int { return -1 }

// MonteCarloCtx runs trials [start, start+trials) of the estimate seeded
// with seed, one at a time, and counts how many returned true. start must
// be a multiple of BlockTrials; workers <= 0 selects GOMAXPROCS. Workers
// check ctx between blocks: on cancellation it returns the completed
// blocks with Result.Partial set and the context's error. A panic inside
// trial is recovered into a *TrialPanicError (cancelling the remaining
// workers), returned with the blocks completed before it.
func MonteCarloCtx(ctx context.Context, start, trials, workers int, seed uint64, trial func(r *rng.RNG) bool) (Result, error) {
	return monteCarloCtx(ctx, start, trials, workers, seed, 0, func() WideBatch { return scalarCounter(trial) })
}

// WideBatchTrial simulates 64·len(hit) independent trial lanes at once on
// a K-word lane block, writing a hit mask into hit: bit j of hit[k] set
// means lane 64k+j's trial observed the counted event — for these
// experiments, a logical failure. It must draw all randomness from r and
// overwrite every word of hit — the harness reuses the block across
// batches.
type WideBatchTrial func(r *rng.RNG, hit []uint64)

// MonteCarloWideCtx is MonteCarloCtx on K-word lane batches of 64·words
// trials; words must divide BlockTrials/64. newBatch is called once per
// worker, and the batch it returns runs on that worker alone, so it may
// keep its lane state and buffers from one batch to the next. A run's
// final block may be short: it runs only the batches its trials need and
// masks the excess lanes of the last, so every counted trial runs exactly
// once. It is MonteCarloBatchCtx on a batch that defers nothing.
func MonteCarloWideCtx(ctx context.Context, start, trials, workers int, seed uint64, words int, newBatch func() WideBatchTrial) (Result, error) {
	return MonteCarloBatchCtx(ctx, start, trials, workers, seed, words, func() WideBatch {
		return &laneTrial{batch: newBatch(), hit: make([]uint64, words)}
	})
}

// MonteCarloBatchCtx is MonteCarloCtx on the lane batches of newBatch,
// K = words words (64·words lanes) per batch; words must divide
// BlockTrials/64. A worker resolves every lane its batch deferred before
// it publishes its totals, so a cancelled run still counts whole blocks
// exactly, and it counts a block only once every lane of it is resolved.
// A panic in a batch names the lowest block with a deferred lane, if
// that is lower than the block being run.
//
// The harness counters "lanes.trials" and telemetry.TrialsMetric count
// counted trials, "lanes.slots" simulated lane slots including the masked
// excess. The fault counter lanes.faults is recorded inside the batch,
// which cannot know which slots will be discarded, so fault rates must be
// normalized by lanes.slots; see core.Target's lane batch.
func MonteCarloBatchCtx(ctx context.Context, start, trials, workers int, seed uint64, words int, newBatch func() WideBatch) (Result, error) {
	if words < 1 || BlockTrials%(64*words) != 0 {
		return Result{}, fmt.Errorf("sim: wide engine needs 1, 2, 4 or 8 words per batch, got %d", words)
	}
	return monteCarloCtx(ctx, start, trials, workers, seed, words, newBatch)
}

// laneTrial runs a WideBatchTrial as a WideBatch that defers nothing.
type laneTrial struct {
	batch WideBatchTrial
	hit   []uint64
}

func (b *laneTrial) Block(r *rng.RNG, _, n int) (h, batches int) {
	unit := 64 * len(b.hit)
	for ran := 0; ran < n; ran += unit {
		b.batch(r, b.hit)
		if left := n - ran; left < unit {
			MaskLanes(b.hit, left)
		}
		for _, m := range b.hit {
			h += bits.OnesCount64(m)
		}
		batches++
	}
	return h, batches
}

func (*laneTrial) Flush() int   { return 0 }
func (*laneTrial) Pending() int { return -1 }

// MaskLanes clears every lane of the lane words hit past the first n, so
// a partial final batch counts exactly its remaining trials.
func MaskLanes(hit []uint64, n int) {
	for j := range hit {
		switch lo := n - 64*j; {
		case lo >= 64:
			// Word fully counted.
		case lo <= 0:
			hit[j] = 0
		default:
			hit[j] &= 1<<uint(lo) - 1
		}
	}
}

// monteCarloCtx is the one worker loop of every engine: workers claim
// the blocks of [start, start+trials) in order, seed a generator for
// each and count its hits with their own counter from newCounter. words
// is the lane batch width, 0 for the scalar engine.
func monteCarloCtx(ctx context.Context, start, trials, workers int, seed uint64, words int,
	newCounter func() WideBatch) (Result, error) {
	if start < 0 || start%BlockTrials != 0 {
		return Result{}, fmt.Errorf("sim: first trial %d is not at a %d-trial block boundary", start, BlockTrials)
	}
	first := start / BlockTrials
	blocks := (trials + BlockTrials - 1) / BlockTrials
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	reg := telemetry.Active(ctx)
	// All lane engines share the lanes metric names. Counts are published
	// every scalar block and every 16 lane batches, which keeps the
	// instrumented lane engine within its throughput budget.
	latName, flushBlocks := "sim.scalar.chunk_seconds", 1
	if words > 0 {
		latName, flushBlocks = "sim.lanes.batch_seconds", 16*64*words/BlockTrials
	}

	// next hands out block offsets, one atomic add per block; each worker
	// publishes its hit and trial totals once, at exit.
	var next, hitsTotal, doneTotal atomic.Int64

	// A worker panic cancels the shared context so the other workers
	// stop claiming blocks; the lowest panicking block is reported.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := cctx.Done()
	var panicMu sync.Mutex
	var panicErr *TrialPanicError

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			wi := &workerInstr{}
			var started time.Time
			if reg != nil {
				wi.trials = reg.Counter(telemetry.TrialsMetric)
				wi.wtrials = reg.Counter(fmt.Sprintf("sim.worker.%02d.trials", w))
				wi.batches = reg.Counter("sim.batches")
				wi.lat = reg.Histogram(latName, telemetry.LatencyBuckets)
				if words > 0 {
					wi.lanesTr = reg.Counter("lanes.trials")
					wi.slots = reg.Counter("lanes.slots")
				}
				started = time.Now()
			}
			// hits and done count resolved blocks; the pending ones wait
			// until count has no deferred lane left.
			var hits, done, pendHits, pendDone int64
			block := -1
			var count WideBatch
			defer func() {
				if r := recover(); r != nil {
					if count != nil {
						if p := count.Pending(); p >= 0 && (block < 0 || p < block) {
							block = p
						}
					}
					panicMu.Lock()
					if panicErr == nil || block < panicErr.Block {
						panicErr = &TrialPanicError{Seed: seed, Block: block, Worker: w, Value: r, Stack: debug.Stack()}
					}
					panicMu.Unlock()
					// Keyed by worker and seed so a dashboard shows which
					// estimate is failing.
					reg.Counter(fmt.Sprintf("sim.panics.worker.%02d.seed.%d", w, seed)).Inc()
					cancel()
				}
				wi.flush()
				if reg != nil {
					// A counter, so successive estimates and merged
					// snapshots add up each worker's busy time.
					reg.Counter(fmt.Sprintf("sim.worker.%02d.nanos", w)).Add(time.Since(started).Nanoseconds())
				}
				hitsTotal.Add(hits)
				doneTotal.Add(done)
				wg.Done()
			}()
			resolve := func() {
				if count.Pending() < 0 {
					hits, done = hits+pendHits, done+pendDone
					pendHits, pendDone = 0, 0
				}
			}
			run := func() {
				count = newCounter()
				var r rng.RNG
				for ran := 0; ; ran++ {
					k := blocks
					select {
					case <-stop:
					default:
						k = int(next.Add(1) - 1)
					}
					if k >= blocks {
						break
					}
					block = first + k
					n := min(BlockTrials, trials-k*BlockTrials)
					r.Seed(rng.SplitMix(seed, uint64(block)))
					var t0 time.Time
					if wi.lat != nil && ran&latSampleMask == 0 {
						t0 = time.Now()
					}
					h, batches := count.Block(&r, block, n)
					if !t0.IsZero() {
						wi.lat.Observe(time.Since(t0).Seconds() / float64(batches))
					}
					pendHits += int64(h)
					pendDone += int64(n)
					resolve()
					wi.nTrials += int64(n)
					wi.nBatches += int64(batches)
					wi.nSlots += int64(batches * 64 * words)
					if (ran+1)%flushBlocks == 0 {
						wi.flush()
					}
				}
				block = -1
				pendHits += int64(count.Flush())
				resolve()
			}
			if reg != nil {
				// Label the worker for CPU profiling; pprof.Do appends to
				// the caller's labels (the job server's job/tenant),
				// so a profile slices engine time per job and per worker.
				pprof.Do(cctx, pprof.Labels("sim_worker", strconv.Itoa(w)), func(context.Context) { run() })
			} else {
				run()
			}
		}(w)
	}
	wg.Wait()

	res := Result{Bernoulli: stats.Bernoulli{
		Trials:    int(doneTotal.Load()),
		Successes: int(hitsTotal.Load()),
	}}
	res.Partial = res.Trials < trials
	if panicErr != nil {
		return res, panicErr
	}
	if err := ctx.Err(); err != nil && res.Partial {
		return res, err
	}
	return res, nil
}
