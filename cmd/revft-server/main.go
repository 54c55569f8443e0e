// Command revft-server runs the sweep job server: an HTTP service that
// accepts Monte Carlo sweep jobs for the paper's experiments (recovery,
// levels, local, adder), fans their points out to a bounded worker pool
// in seed-stable shards, and persists every job-state transition to a
// crash-safe journal so a killed server resumes exactly where it died.
//
// Usage:
//
//	revft-server -addr 127.0.0.1:8023 -data ./server-data
//
// Lifecycle:
//
//	curl -X POST :8023/jobs -d '{"experiment":"recovery","gmin":1e-3,...}'
//	curl :8023/jobs/<id>            # poll status
//	curl :8023/jobs/<id>/progress   # live trials/points done, per-shard
//	                                # wall-time histograms, Wilson
//	                                # half-width trajectory, ETA
//	curl :8023/jobs/<id>/metrics    # merged cross-shard telemetry snapshot
//	                                # (JSON; ?format=text for exposition)
//	curl :8023/jobs/<id>/result     # fetch result.json once done
//	curl -X DELETE :8023/jobs/<id>  # cancel
//
// Jobs carry a priority class (interactive, batch, or bulk, default
// batch): the shard scheduler serves classes by weighted round-robin
// (8/3/1), preempts running bulk shards at checkpoint boundaries when
// interactive work queues, and refuses or sheds — with typed 429s and
// Retry-After hints — jobs whose requested timeout the current queue
// makes unmeetable. -stall-budget arms the stuck-shard watchdog:
// attempts with no progress for that long are cancelled and retried
// from their checkpoint. GET /healthz reports the four-state health
// machine (healthy | degraded | draining | failed).
//
// -debug-addr serves /debug/pprof/ alongside /metrics and /debug/vars;
// shard workers run under pprof labels (job, tenant, shard), so a CPU
// profile of a busy server slices engine time per job.
//
// SIGINT/SIGTERM triggers a graceful drain: the server stops admitting,
// in-flight shards checkpoint at the next point boundary, traces flush,
// and the process exits 0. Restarting with the same -data replays the
// journal and resumes every interrupted job; the eventual results are
// bit-identical to an uninterrupted run.
//
// -chaos injects write faults into the checkpoint/result path (exactly
// like revft-mc -chaos); the journal always writes through the clean OS
// filesystem because journal appends are deliberately not retried — a
// torn retried line would read as mid-file corruption on replay.
//
// -cache points the server at a content-addressed result cache (default
// "auto" = <data>/cache; "off" disables). A resubmitted spec whose result
// is already stored is served at submission time — journaled
// submitted+done with a byte-identical result.json and zero Monte Carlo —
// and a spec whose ε-grid is a subset of a cached same-family entry
// grafts the cached points and computes only the remainder. Entries are
// hash-verified on read; a tampered or torn entry is a typed miss, never
// a wrong answer. Audit a cache offline with revft-verify -cache <dir>.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"revft/internal/chaos"
	"revft/internal/exp"
	"revft/internal/resultcache"
	"revft/internal/server"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "revft-server:", err)
		os.Exit(1)
	}
}

// drivers adapts the shardable sweep experiments to the server's Driver
// contract. Engine validation happens here so a bad engine is a typed
// 400 rejection, not a shard failure at run time.
func drivers() map[string]server.Driver {
	mk := func(name string) server.Driver {
		return func(spec server.JobSpec, grid []float64) (sweep.PointFunc, int, error) {
			if err := exp.CheckEngine(spec.Engine); err != nil {
				return nil, 0, err
			}
			p := exp.MCParams{Trials: spec.Trials, Workers: spec.Workers, Seed: spec.Seed, Engine: spec.Engine}
			return exp.ShardableSweep(name, grid, spec.MaxLevel, spec.Bits, p)
		}
	}
	out := make(map[string]server.Driver)
	for _, name := range []string{"recovery", "levels", "local", "adder"} {
		out[name] = mk(name)
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("revft-server", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8023", "listen address (port 0 picks a free port)")
		data         = fs.String("data", "revft-server-data", "durable data directory: job journal, shard checkpoints, traces, results")
		pool         = fs.Int("pool", 0, "shard worker pool size (0 = GOMAXPROCS)")
		maxActive    = fs.Int("max-active", 64, "bound on admitted-but-unfinished jobs across all tenants")
		tenantJobs   = fs.Int("tenant-jobs", 8, "per-tenant concurrent active job quota (0 = unlimited)")
		tenantTrials = fs.Int64("tenant-trials", 0, "per-tenant in-flight trial budget, points x trials summed over active jobs (0 = unlimited)")
		maxInter     = fs.Int("max-interactive", 0, "bound on active interactive-priority jobs (0 = only the global -max-active bound)")
		maxBatch     = fs.Int("max-batch", 0, "bound on active batch-priority jobs (0 = only the global -max-active bound)")
		maxBulk      = fs.Int("max-bulk", 0, "bound on active bulk-priority jobs (0 = only the global -max-active bound)")
		stallBudget  = fs.Duration("stall-budget", 2*time.Minute, "stuck-shard watchdog: cancel and retry a shard attempt with no progress for this long (0 disables)")
		degradedAt   = fs.Int("degraded-queue", 0, "queued-shard depth past which /healthz reports degraded (0 = 8 x pool size)")
		cacheDir     = fs.String("cache", "auto", `content-addressed result cache directory: "auto" = <data>/cache, "off" = disabled`)
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "bound on the SIGTERM graceful drain")
		debugAddr    = fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this host:port while the server runs")
		chaosRate    = fs.Float64("chaos", 0, "fault-injection probability per checkpoint/result write operation, in [0,1)")
		chaosSeed    = fs.Uint64("chaos-seed", 1, "seed for the injected fault sequence")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosRate < 0 || *chaosRate >= 1 {
		return fmt.Errorf("-chaos %v: need a probability in [0, 1)", *chaosRate)
	}

	fsys := chaos.FS(chaos.OS)
	if *chaosRate > 0 {
		fsys = &chaos.InjectFS{
			Hook: chaos.Prob(*chaosRate, *chaosSeed, chaos.WriteOps...),
			Torn: true,
		}
		log.Printf("chaos injection active: rate %g, seed %d (checkpoint/result writes only)", *chaosRate, *chaosSeed)
	}

	reg := telemetry.New()
	telemetry.SetDefault(reg)

	// The result cache writes through the same (possibly chaotic)
	// filesystem as checkpoints and results: entries are atomic and
	// hash-verified on read, so injected faults cost at most a miss.
	var cache *resultcache.Store
	switch *cacheDir {
	case "off":
	case "auto":
		cache = &resultcache.Store{Dir: filepath.Join(*data, "cache"), FS: fsys, Metrics: reg}
	default:
		cache = &resultcache.Store{Dir: *cacheDir, FS: fsys, Metrics: reg}
	}

	workers := *pool
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	srv, err := server.New(server.Config{
		DataDir:            *data,
		Drivers:            drivers(),
		PoolWorkers:        workers,
		MaxActiveJobs:      *maxActive,
		MaxJobsPerTenant:   *tenantJobs,
		MaxTrialsPerTenant: *tenantTrials,
		MaxActivePerClass: map[string]int{
			server.PriorityInteractive: *maxInter,
			server.PriorityBatch:       *maxBatch,
			server.PriorityBulk:        *maxBulk,
		},
		StallBudget:        *stallBudget,
		DegradedQueueDepth: *degradedAt,
		FS:                 fsys,
		JournalFS:          chaos.OS,
		Metrics:            reg,
		Cache:              cache,
		Logf:               log.Printf,
	})
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		d, derr := telemetry.ServeDebug(*debugAddr, reg)
		if derr != nil {
			_ = srv.Close()
			return fmt.Errorf("debug server: %w", derr)
		}
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			_ = d.Shutdown(sctx)
		}()
		log.Printf("debug server on http://%s (/metrics, /debug/vars, /debug/pprof/)", d.Addr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = srv.Close()
		return fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("serving on http://%s (data dir %s, %d workers)", ln.Addr(), *data, workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("signal received; draining (bound %v)", *drainTimeout)
	case err := <-serveErr:
		_ = srv.Close()
		return fmt.Errorf("http server: %w", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	// Stop the listener and in-flight requests first, then park the jobs:
	// a request that lands mid-drain would only see typed 503s anyway.
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained cleanly; journal and checkpoints are resumable from %s", *data)
	return nil
}
