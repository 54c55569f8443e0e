package sim

// Context-aware Monte Carlo engines: the cancellable, panic-isolating
// scalar harness behind MonteCarlo and the lane-block harness. Long
// sweeps near threshold run minutes to hours, so these let a deadline or
// SIGINT stop a run between trial batches and still hand back the partial
// estimate accumulated so far, and they convert a panicking trial into a
// typed, reproducible error instead of crashing the process.
//
// The engines are instrumented through the telemetry registry resolved
// from the context (telemetry.Active): completed trials globally and per
// worker, sampled batch latency, per-worker wall time, lane-slot
// utilization, and panic counts keyed by worker and seed. With telemetry
// disabled the registry is nil and every metric call is a pointer-test
// no-op; the counters a worker does keep are accumulated locally and
// flushed at block (lanes) or chunk (scalar) granularity, so the hot trial
// loop never takes a shared atomic per trial.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"math/bits"

	"revft/internal/rng"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

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

// TrialPanicError reports a panic recovered inside a Monte Carlo trial.
// Worker and Seed identify the RNG stream that produced the failing trial,
// so the panic is reproducible: worker w's stream is the (w+1)-th Jump of
// rng.New(Seed), and the worker runs its trials sequentially on it.
type TrialPanicError struct {
	Worker int    // index of the worker whose trial panicked
	Seed   uint64 // harness seed the worker streams derive from
	Value  any    // the recovered panic value
	Stack  []byte // stack trace captured at recovery
}

func (e *TrialPanicError) Error() string {
	return fmt.Sprintf("sim: trial panic in worker %d (seed %d, stream = jump %d): %v",
		e.Worker, e.Seed, e.Worker+1, e.Value)
}

// ctxCheckInterval is how many scalar trials run between context checks.
// Trials are microseconds, so this keeps cancellation latency well under
// a millisecond while making the per-trial overhead unmeasurable.
const ctxCheckInterval = 256

// latSampleMask selects which batches are wall-clock timed for the batch
// latency histogram: every 16th, so the two time.Now calls are amortized
// to ~nothing while the sampled distribution still fills quickly.
const latSampleMask = 15

// workerInstr is one worker's telemetry handle set. The zero value (all
// nil) is fully usable and makes every record a no-op, which is how
// uninstrumented runs pay nothing.
type workerInstr struct {
	trials  *telemetry.Counter   // telemetry.TrialsMetric: global completed trials
	wtrials *telemetry.Counter   // this worker's completed trials
	batches *telemetry.Counter   // batches/chunks completed
	lanesTr *telemetry.Counter   // lane engines only: counted lane trials
	slots   *telemetry.Counter   // lane engines only: simulated lane slots (see below)
	lat     *telemetry.Histogram // sampled batch latency, seconds
	tick    uint
}

// MonteCarloCtx is MonteCarlo under a context: workers check ctx between
// trial batches and stop early when it is cancelled. A run that completes
// all trials is bit-identical to MonteCarlo for the same (seed, workers).
// On cancellation it returns the partial estimate with Result.Partial set
// and the context's error. A panic inside trial is recovered into a
// *TrialPanicError (cancelling the remaining workers) rather than
// crashing the process; the counts accumulated before the panic are
// returned alongside it.
func MonteCarloCtx(ctx context.Context, trials, workers int, seed uint64, trial func(r *rng.RNG) bool) (Result, error) {
	return monteCarloCtx(ctx, trials, workers, 1, seed,
		func(r *rng.RNG, n int, stop func() bool, hits, done *int, wi *workerInstr) {
			for i := 0; i < n; {
				if stop() {
					return
				}
				chunk := n - i
				if chunk > ctxCheckInterval {
					chunk = ctxCheckInterval
				}
				sample := wi.lat != nil && wi.tick&latSampleMask == 0
				wi.tick++
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				h := 0
				for end := i + chunk; i < end; i++ {
					if trial(r) {
						h++
					}
				}
				if sample {
					wi.lat.Observe(time.Since(t0).Seconds())
				}
				*hits += h
				*done += chunk
				// One chunk is 256 trials, so direct atomic adds here are
				// already amortized; they are what keeps the registry's
				// trial count exactly in step with *done.
				wi.trials.Add(int64(chunk))
				wi.wtrials.Add(int64(chunk))
				wi.batches.Inc()
			}
		})
}

// WideBatchTrial simulates 64·len(hit) independent trial lanes at once on
// a K-word lane block, writing a hit mask into hit: bit j of hit[k] set
// means lane 64k+j's trial observed the counted event — for these
// experiments, a logical failure. It must draw all randomness from r and
// overwrite every word of hit — the harness reuses the block across
// batches.
type WideBatchTrial func(r *rng.RNG, hit []uint64)

// MonteCarloWideCtx runs trials independent lanes of batch on K-word lane
// blocks (words words of 64 lanes each, so one batch call advances
// 64·words trials), with MonteCarloCtx's cancellation, partial-result,
// and panic-isolation semantics. Worker seeding follows MonteCarlo
// exactly, so results are reproducible for a fixed (seed, workers, words).
// The final batch of each worker may cover fewer trials than the block
// holds; its excess lanes are simulated but not counted, so every counted
// trial runs exactly once. words < 1 is an error.
func MonteCarloWideCtx(ctx context.Context, trials, workers int, seed uint64, words int, batch WideBatchTrial) (Result, error) {
	if words < 1 {
		return Result{}, fmt.Errorf("sim: wide engine needs at least 1 word per block, got %d", words)
	}
	return monteCarloCtx(ctx, trials, workers, 64*words, seed, wideBody(words, batch))
}

// wideBody is the shared worker body of the lane-block engines: one batch
// call fills a words-long hit-mask block covering 64·words trial lanes.
// The final batch of a worker's share may cover fewer trials than the
// block holds; its excess lane slots are simulated but masked out of the
// hit mask before counting, so every counted trial runs exactly once.
//
// Slot-vs-trial accounting: the harness counters "lanes.trials" and
// telemetry.TrialsMetric count counted trials, while "lanes.slots" counts
// simulated lane slots including the masked excess. Fault-injection
// counters (lanes.faults, lanes.op_faults.*) are recorded inside the
// batch, which cannot know which of its slots the harness will discard —
// so fault rates must be normalized by lanes.slots, not lanes.trials.
// See lanes.Instr for the same contract at the engine level.
func wideBody(words int, batch WideBatchTrial) func(r *rng.RNG, n int, stop func() bool, hits, done *int, wi *workerInstr) {
	unit := 64 * words
	return func(r *rng.RNG, n int, stop func() bool, hits, done *int, wi *workerInstr) {
		// Lane batches are only microseconds each, so telemetry counts
		// accumulate locally and flush every flushEvery batches (and
		// at exit, including panic unwinds — the deferred flush) to
		// keep the instrumented engine within its throughput budget.
		const flushEvery = 16
		var fb, ft, fs int64
		flush := func() {
			if fb == 0 {
				return
			}
			wi.batches.Add(fb)
			wi.trials.Add(ft)
			wi.wtrials.Add(ft)
			wi.lanesTr.Add(ft)
			wi.slots.Add(fs)
			fb, ft, fs = 0, 0, 0
		}
		defer flush()
		hit := make([]uint64, words)
		for remaining := n; remaining > 0; {
			if stop() {
				return
			}
			sample := wi.lat != nil && wi.tick&latSampleMask == 0
			wi.tick++
			var t0 time.Time
			if sample {
				t0 = time.Now()
			}
			batch(r, hit)
			if sample {
				wi.lat.Observe(time.Since(t0).Seconds())
			}
			c := unit
			if remaining < unit {
				c = remaining
				maskLanes(hit, c)
			}
			remaining -= c
			h := 0
			for _, m := range hit {
				h += bits.OnesCount64(m)
			}
			*hits += h
			*done += c
			fb++
			ft += int64(c)
			fs += int64(unit)
			if fb == flushEvery {
				flush()
			}
		}
	}
}

// maskLanes clears every lane of the block past the first n, so a partial
// final batch counts exactly its remaining trials.
func maskLanes(hit []uint64, n int) {
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

// monteCarloCtx is the shared harness core. unit is the trial granularity
// of one body iteration (1 for scalar, 64·words for the lane-block
// engines) and bounds the worker count so no worker gets an empty share.
// body runs n trials on stream r, polling stop between batches and
// accumulating through hits/done so progress survives a panic; wi carries
// the worker's telemetry handles.
func monteCarloCtx(ctx context.Context, trials, workers, unit int, seed uint64,
	body func(r *rng.RNG, n int, stop func() bool, hits, done *int, wi *workerInstr)) (Result, error) {
	if trials <= 0 {
		return Result{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shares := (trials + unit - 1) / unit; workers > shares {
		workers = shares
	}

	reg := telemetry.Active(ctx)
	// All lane-block engines share the lanes metric names, so dashboards
	// and CI greps stay stable across block widths.
	latName := "sim.scalar.chunk_seconds"
	if unit > 1 {
		latName = "sim.lanes.batch_seconds"
	}

	master := rng.New(seed)
	streams := make([]*rng.RNG, workers)
	for i := range streams {
		streams[i] = master.Jump()
	}

	// Each worker accumulates locally and publishes exactly once at exit
	// with a single atomic add, so no two workers ever store to the same
	// cache line while trials are running. (An earlier version gave each
	// worker an int slot in a shared counts slice; adjacent slots share a
	// 64-byte line, so the final stores — and any future per-batch
	// publishing — would false-share.)
	var hitsTotal, doneTotal atomic.Int64

	// A worker panic cancels the shared context so the other workers
	// drain at their next check instead of burning the rest of the
	// budget; only the first panic is reported.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var panicMu sync.Mutex
	var panicErr *TrialPanicError

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Spread the remainder so every trial runs exactly once.
		n := trials / workers
		if w < trials%workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			wi := &workerInstr{}
			var started time.Time
			if reg != nil {
				wi.trials = reg.Counter(telemetry.TrialsMetric)
				wi.wtrials = reg.Counter(fmt.Sprintf("sim.worker.%02d.trials", w))
				wi.batches = reg.Counter("sim.batches")
				wi.lat = reg.Histogram(latName, telemetry.LatencyBuckets)
				if unit > 1 {
					wi.lanesTr = reg.Counter("lanes.trials")
					wi.slots = reg.Counter("lanes.slots")
				}
				started = time.Now()
			}
			var hits, done int
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicErr == nil {
						panicErr = &TrialPanicError{Worker: w, Seed: seed, Value: r, Stack: debug.Stack()}
					}
					panicMu.Unlock()
					// Keyed by worker and seed so a dashboard shows which
					// reproducible stream is failing.
					reg.Counter(fmt.Sprintf("sim.panics.worker.%02d.seed.%d", w, seed)).Inc()
					cancel()
				}
				if reg != nil {
					reg.Gauge(fmt.Sprintf("sim.worker.%02d.seconds", w)).Set(time.Since(started).Seconds())
				}
				hitsTotal.Add(int64(hits))
				doneTotal.Add(int64(done))
				wg.Done()
			}()
			run := func() {
				body(streams[w], n, func() bool { return cctx.Err() != nil }, &hits, &done, wi)
			}
			if reg != nil {
				// With instrumentation on, label the worker for CPU
				// profiling. Callers that labeled their own goroutine (the
				// job server labels shards with job/tenant/shard) keep those
				// labels — pprof.Do appends — so a profile slices engine
				// batch time per job AND per worker. The bare path skips
				// this entirely to stay at uninstrumented cost.
				pprof.Do(cctx, pprof.Labels("sim_worker", strconv.Itoa(w)), func(context.Context) { run() })
			} else {
				run()
			}
		}(w, n)
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
