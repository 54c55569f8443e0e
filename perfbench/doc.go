// Command perfbench is the repository's benchmark. It runs one of three
// workloads in-process through the modules' public functions, checks that
// their outputs are correct, and prints every metric by name with its
// unit and sample count. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics; the exit
// status is 0 only when every operation succeeded with correct output.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash perfbench/run.sh --workload threshold-sweep --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads, why each was
// chosen and which modules it loads, and the metrics, with the share of
// the parent commit's median by which each end-to-end metric may worsen.
// The same seed gives the same inputs.
//
// # Workloads
//
// threshold-sweep is `revft-mc -exp levels` at the paper's operating
// point (threshold.go): levels 0-2, a 3-point grid from ρ/10 to ρ/2, the
// 512-lane engine, one worker, adaptive stopping. Nearly all its time is
// in lanes, core and sim; it never touches server, resultcache or client.
//
// server-mixed and server-contended drive an in-process server with
// closed-loop clients (serverload.go). In server-mixed journal fsyncs,
// result and cache writes, digest lookups over the job history and
// client polling dominate, and the engine barely matters. In
// server-contended bulk sweeps keep the pool full while interactive jobs
// preempt them. BENCHMARK.json gates the first two; server-contended runs
// on request (see workloads in main.go).
//
// # End-to-end metrics
//
// Every untraced run reports the same seven metrics; a miss is an
// operation that runs Monte Carlo, a hit one answered from stored
// results.
//
//	metric       threshold-sweep          server-mixed            server-contended
//	setup_s      driver build + compile   server.New replay       server.New replay
//	miss_*_ms    sweep to the stop rule   computing round trip    interactive round trip
//	hit_*_ms     -resume of the finished  repeat and subset       repeat of an
//	             checkpoint               round trip              interactive job
//	work_per_s   trials per second        jobs per second         bulk trials per second
//	rss_mb       median resident set while the measured phase runs
//
// setup_s is the median of several set-ups per run. Miss latencies are
// reported at p50 and p90, hit latencies at p50 and p75 (see endToEnd),
// with their sample counts; a failed operation counts as missing every
// latency. Failures are the attempted and failed
// fields of the result line.
//
// # Per-layer rows
//
// With --trace 1 a run first repeats the untraced measurement, then runs
// the same work again with spans recorded at the seams the modules
// already expose (trace.go), and emits the per-layer rows instead. The
// difference between the two passes is telemetry.trace_overhead_frac.
// Kernel, engine, harness, oracle and telemetry rows are direct calls
// (layers.go). A row for a module the workload does not load reads 0
// with 0 samples. The rows, and the end-to-end metrics each should move:
//
//	lanes.<circuit>.<variant>.ns_per_op, .ops, .fused, .samplers
//	    miss_*_ms and work_per_s on threshold-sweep, work_per_s on
//	    server-contended; never hit_*_ms.
//	core.<circuit>.<engine>.ns_per_trial, exp.local.<engine>.ns_per_trial
//	    the same, and miss_*_ms on server-mixed slightly.
//	sim.scaling_w2
//	    a guard for the worker harness; moves nothing at one worker.
//	telemetry.instrumented_frac
//	    miss_*_ms on threshold-sweep.
//	exact.enumerate_ms
//	    setup_s on threshold-sweep once the oracle is part of set-up.
//	exp.setup_ms
//	    setup_s on threshold-sweep, miss_*_ms on the server workloads.
//	sweep.trials, .converged_frac, .self_frac, .checkpoint_ms, .fsyncs_per_point
//	    miss_*_ms on threshold-sweep and server-mixed.
//	server.replay_ms_per_kjob
//	    setup_s on the server workloads.
//	server.journal_fsync_ms, .journal_fsyncs_per_job, .queue_wait_ms,
//	server.job_ms, .unexplained_frac
//	    miss_*_ms on the server workloads.
//	server.submit_ms, .lookup_ms
//	    hit_*_ms; both grow with the history.
//	server.preemptions, .useful_trial_frac
//	    work_per_s and miss_*_ms on server-contended.
//	resultcache.get_ms, .put_ms, .hit_frac, .reused_points, .reads_per_submit
//	    hit_*_ms and work_per_s on server-mixed.
//	client.poll_wait_ms, .requests_per_job, .retries
//	    miss_*_ms on the server workloads.
//
// Rows marked as exact counts in metrics.go must repeat exactly for the
// same code, workload, seed and run length: each traced run compares them
// with the previous traced run of the same kind under --work and prints a
// COUNT DRIFT line for every one that changed. sweep.trials_seed_spread
// and sweep.tolerance_seed_spread compare the threshold sweep at the run's
// seed and the next one, so a change to the random stream shows apart
// from a change in speed.
//
// # Output checks
//
// threshold-sweep compares every level-0 and level-1 estimate with the
// exact oracle's bounds (see oracleZ for the false-alarm rate), requires
// every repetition and every resume to reproduce the first sweep, and the
// traced runner pass to reproduce exp.LevelsCtx. The server workloads
// recompute every computed result in-process through the same point
// function, unsharded and unpreempted, outside the timed window, and
// require repeats to be byte-identical to their source and subset points
// equal to the source's points.
package main
