// Command revft-mc runs the Monte Carlo experiments: logical error rates of
// the fault-tolerant constructions under the paper's noise model, measured
// ancilla entropy, the NAND-multiplexing baseline, and module-level
// comparisons.
//
// Usage:
//
//	revft-mc -exp recovery   [-gmin 1e-4 -gmax 3e-2 -points 7]
//	revft-mc -exp levels     [-maxlevel 2]
//	revft-mc -exp local
//	revft-mc -exp entropy
//	revft-mc -exp vonneumann
//	revft-mc -exp adder      [-bits 4]
//	revft-mc -exp initablation|correlated|interleave|memory|idle
//
// Common flags: -trials, -workers, -seed, -csv, -engine.
//
// -engine selects the Monte Carlo execution engine of the sweeps
// (recovery, levels, local, adder) and of the initablation, interleave and
// memory ablations: "scalar" runs one trial at a time;
// "lanes", "lanes256" and "lanes512" run 1-, 4- or 8-word lane blocks
// (64, 256 or 512 bit-sliced trials per batch) through the fused
// word-program compiler — adjacent CNOT/CNOT/Toffoli triples collapse
// into single MAJ/UMA kernels and fault points sharing a probability
// share one geometric sampler. All engines sample the same noise process;
// wider blocks amortize more dispatch per trial. correlated, idle, entropy
// and vonneumann have no lane path and refuse a lane engine before running.
//
// The sweep experiments (recovery, levels, local, adder) also run on a
// resilient runtime with these flags:
//
//	-cache dir            content-addressed result cache: a sweep whose
//	                      exact spec this command completed before is
//	                      served from the cache with zero trials run;
//	                      fresh completions are stored for next time.
//	                      Entries are keyed by the sweep spec's digest and
//	                      hold a sweep checkpoint, so the job server's
//	                      entries (keyed by its job spec) never hit here.
//	                      Entries are hash-verified on read — a tampered
//	                      or torn entry is a miss, never a wrong table
//	                      (audit with revft-verify -cache)
//	-checkpoint ck.json   rewrite an atomic JSON checkpoint after every
//	                      completed sweep point
//	-resume               load -checkpoint and skip its completed points;
//	                      the checkpoint must come from an identical spec
//	                      (experiment, grid, trials, seed, engine, ...)
//	-timeout 10m          cancel the sweep after a wall-clock budget
//	-reltol 0.05          adaptive early stopping: per point, stop once every
//	                      estimate's 95% Wilson half-width is at most reltol
//	                      times its rate (floor 1024 trials, ceiling -trials)
//	-zeroscale 1e-6       with -reltol: let a point with zero observed
//	                      failures stop early once its 95% Wilson upper
//	                      bound drops below reltol times this rate scale
//	                      (without it, zero-success points always run to
//	                      the ceiling, since their relative width is
//	                      unbounded)
//	-progress             sweep experiments: one line per completed point;
//	                      other experiments: a heartbeat every 2s with
//	                      trials done, trials/sec, and ETA
//
// Observability flags (all experiments):
//
//	-debug-addr host:port serve /metrics (plain text), /debug/vars (expvar,
//	                      including the full registry snapshot under
//	                      "revft"), and /debug/pprof/ while the run is live
//	-trace run.jsonl      write a JSONL event stream: a manifest header
//	                      line (tool, git revision, engine, seed, Go
//	                      version, GOMAXPROCS, ...), one event per sweep
//	                      transition, and a final metrics snapshot
//
// Chaos injection (testing the runtime itself):
//
//	-chaos 0.05           fail each checkpoint/trace write operation
//	                      independently with this probability (torn
//	                      writes included). The Monte Carlo results are
//	                      unaffected: checkpoint writes retry with
//	                      backoff and keep the old-or-new guarantee,
//	                      trace writes degrade to counted drops. The
//	                      active chaos configuration is recorded in the
//	                      run manifest so chaotic artifacts are
//	                      self-identifying.
//	-chaos-seed 1         seed for the fault sequence (reproducible runs)
//
// SIGINT/SIGTERM cancels the sweep cleanly: in-flight trials stop at the
// next 512-trial block boundary, the checkpoint is flushed, and the
// partial table is printed with a [PARTIAL] title tag. Rerunning with the
// same spec and -resume finishes the sweep; the final table is
// bit-identical to an uninterrupted run for a fixed (seed, engine). The
// ablations stop at the same boundary and print no table.
//
// Exit codes:
//
//	0  the run completed
//	3  the run was interrupted (SIGINT/SIGTERM or -timeout); a sweep
//	   printed a [PARTIAL] table and its checkpoint, if any, is resumable
//	1  anything else (usage errors, I/O failures, trial panics)
//
// Scripts can therefore distinguish "partial but resumable" from real
// failures without parsing stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"revft/internal/chaos"
	"revft/internal/client"
	"revft/internal/exp"
	"revft/internal/resultcache"
	"revft/internal/server"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// exitPartial is the documented exit code for a run interrupted by a
// signal or -timeout after printing a [PARTIAL] table.
const exitPartial = 3

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "revft-mc:", err)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// A cancelled or timed-out sweep is not a failure of the tool: the
		// partial table was printed and the checkpoint flushed. Give
		// scripts a distinct code so they can resume instead of aborting.
		os.Exit(exitPartial)
	}
	os.Exit(1)
}

func run(args []string) error {
	fs := flag.NewFlagSet("revft-mc", flag.ContinueOnError)
	var (
		expName  = fs.String("exp", "recovery", "experiment: recovery|levels|local|entropy|vonneumann|adder|initablation|correlated|interleave|memory|idle")
		trials   = fs.Int("trials", 200000, "Monte Carlo trials per data point")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed     = fs.Uint64("seed", 1, "random seed")
		engine   = fs.String("engine", exp.EngineScalar, "execution engine: "+strings.Join(exp.EngineNames(), "|"))
		gmin     = fs.Float64("gmin", 1e-4, "smallest gate error rate in the sweep")
		gmax     = fs.Float64("gmax", 3e-2, "largest gate error rate in the sweep")
		points   = fs.Int("points", 7, "number of sweep points")
		maxLevel = fs.Int("maxlevel", 2, "deepest concatenation level (levels experiment)")
		bits     = fs.Int("bits", 4, "adder width (adder experiment)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")

		serverURL = fs.String("server", "", "submit the sweep to a running revft-server at this base URL (e.g. http://127.0.0.1:8080) instead of computing locally; sweep experiments only")
		priority  = fs.String("priority", "", "with -server: job priority class interactive|batch|bulk (default batch)")
		tenant    = fs.String("tenant", "", "with -server: tenant name for quota accounting (default \"default\")")

		cacheDir   = fs.String("cache", "", "content-addressed result cache directory for the sweep experiments: serve an already-computed sweep from the cache and store fresh completions into it")
		checkpoint = fs.String("checkpoint", "", "checkpoint file for the sweep experiments (rewritten after every completed point)")
		resume     = fs.Bool("resume", false, "resume from -checkpoint, skipping completed points")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget for the sweep experiments (0 = none)")
		reltol     = fs.Float64("reltol", 0, "adaptive early stopping: target relative 95% CI half-width per point (0 = fixed -trials)")
		zeroscale  = fs.Float64("zeroscale", 0, "with -reltol: let zero-success points stop once their 95% CI upper bound is below reltol times this rate scale (0 = run such points to the ceiling)")
		progress   = fs.Bool("progress", false, "print progress to stderr: per-point lines for sweep experiments, a trials/sec heartbeat otherwise")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this host:port while the run is live")
		traceFile  = fs.String("trace", "", "write a JSONL event trace (manifest header, sweep events, final metrics snapshot) to this file")
		chaosRate  = fs.Float64("chaos", 0, "fault-injection probability per checkpoint/trace write operation, in [0,1) (0 = off); results are unaffected, only the I/O resilience machinery is exercised")
		chaosSeed  = fs.Uint64("chaos-seed", 1, "seed for the injected fault sequence")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := exp.CheckEngine(*engine); err != nil {
		return err
	}
	// Validate everything flag-reachable here so bad values come back as
	// usage errors, never as library panics. NaN passes every comparison,
	// so the float flags are checked for finiteness first.
	switch {
	case !finite(*gmin, *gmax, *reltol, *zeroscale, *chaosRate):
		return fmt.Errorf("-gmin %v, -gmax %v, -reltol %v, -zeroscale %v, -chaos %v: need finite values",
			*gmin, *gmax, *reltol, *zeroscale, *chaosRate)
	case *trials < 1:
		return fmt.Errorf("-trials %d: need at least 1", *trials)
	case *workers < 0:
		return fmt.Errorf("-workers %d: need 0 (= GOMAXPROCS) or more", *workers)
	case *gmin <= 0 || *gmax <= 0:
		return fmt.Errorf("-gmin %v, -gmax %v: gate error rates must be positive", *gmin, *gmax)
	case *gmax > 1:
		return fmt.Errorf("-gmax %v: gate error rate cannot exceed 1", *gmax)
	case *gmin > *gmax:
		return fmt.Errorf("-gmin %v exceeds -gmax %v", *gmin, *gmax)
	case *points < 1:
		return fmt.Errorf("-points %d: need at least 1", *points)
	case *points == 1 && *gmin != *gmax:
		return fmt.Errorf("-points 1 needs -gmin == -gmax (got %v, %v)", *gmin, *gmax)
	case *maxLevel < 0 || *maxLevel > exp.MaxLevel:
		return fmt.Errorf("-maxlevel %d: need 0..%d", *maxLevel, exp.MaxLevel)
	case *bits < 1 || 2*(*bits)+2 > 64:
		return fmt.Errorf("-bits %d: adder needs 1..31 (state width 2n+2 must fit in 64)", *bits)
	case *reltol < 0:
		return fmt.Errorf("-reltol %v: need 0 (off) or positive", *reltol)
	case *zeroscale < 0:
		return fmt.Errorf("-zeroscale %v: need 0 (off) or positive", *zeroscale)
	case *chaosRate < 0 || *chaosRate >= 1:
		return fmt.Errorf("-chaos %v: need a probability in [0, 1)", *chaosRate)
	}
	if *zeroscale > 0 && *reltol == 0 {
		return errors.New("-zeroscale requires -reltol")
	}
	p := exp.MCParams{Trials: *trials, Workers: *workers, Seed: *seed, Engine: *engine}
	gs := stats.LogSpace(*gmin, *gmax, *points)

	sweepExp := slices.Contains(exp.SweepExperiments(), *expName)
	sweepList := strings.Join(exp.SweepExperiments(), ", ")
	if !sweepExp {
		for name, set := range map[string]bool{
			"-cache":      *cacheDir != "",
			"-checkpoint": *checkpoint != "",
			"-resume":     *resume,
			"-timeout":    *timeout != 0,
			"-reltol":     *reltol != 0,
			"-zeroscale":  *zeroscale != 0,
		} {
			if set {
				return fmt.Errorf("%s only applies to the sweep experiments (%s), not %q", name, sweepList, *expName)
			}
		}
	}
	// entropy and vonneumann's estimators take neither engine nor context;
	// correlated and idle run a fault process or an idle schedule, which
	// only the scalar engine executes.
	contextFree := *expName == "entropy" || *expName == "vonneumann"
	if (contextFree || *expName == "correlated" || *expName == "idle") && *engine != exp.EngineScalar {
		return fmt.Errorf("-engine %s: %s has no lane path; use -engine %s", *engine, *expName, exp.EngineScalar)
	}
	if *resume && *checkpoint == "" {
		return errors.New("-resume requires -checkpoint")
	}
	if *serverURL == "" {
		for name, set := range map[string]bool{
			"-priority": *priority != "",
			"-tenant":   *tenant != "",
		} {
			if set {
				return fmt.Errorf("%s requires -server (remote mode)", name)
			}
		}
	} else {
		if !sweepExp {
			return fmt.Errorf("-server only applies to the sweep experiments (%s), not %q", sweepList, *expName)
		}
		// The local runtime flags make no sense against a remote server,
		// which has its own checkpoints, cache, chaos seams, and traces.
		for name, set := range map[string]bool{
			"-cache":      *cacheDir != "",
			"-checkpoint": *checkpoint != "",
			"-resume":     *resume,
			"-chaos":      *chaosRate != 0,
			"-debug-addr": *debugAddr != "",
			"-trace":      *traceFile != "",
		} {
			if set {
				return fmt.Errorf("%s is a local-run flag; it does not apply with -server", name)
			}
		}
		spec := remoteSpec(*expName, *maxLevel, *bits, server.JobSpec{
			Tenant: *tenant,
			GMin:   *gmin, GMax: *gmax, Points: *points,
			Trials: *trials, Seed: *seed, Engine: *engine,
			Workers: *workers,
			RelTol:  *reltol, ZeroScale: *zeroscale,
			TimeoutSeconds: timeout.Seconds(),
			Priority:       *priority,
		})
		return runRemote(*serverURL, spec, *csv, *progress)
	}

	// Chaos: a positive rate swaps the runtime filesystem under the
	// checkpoint and trace writers for one that fails each write-side
	// operation with that probability (including torn writes). Read
	// operations stay clean so a resume can always load what survived.
	fsys := chaos.OS
	if *chaosRate > 0 {
		fsys = &chaos.InjectFS{
			Hook: chaos.Prob(*chaosRate, *chaosSeed, chaos.WriteOps...),
			Torn: true,
		}
		fmt.Fprintf(os.Stderr, "revft-mc: chaos injection active: rate %g, seed %d (checkpoint/trace writes only)\n", *chaosRate, *chaosSeed)
	}

	// Telemetry: any observability flag builds a registry and installs it
	// process-wide, so even the estimators that take no context (entropy,
	// vonneumann) report trial counts into it.
	var (
		reg *telemetry.Registry
		man *telemetry.Manifest
		tr  *telemetry.Trace
		ft  *telemetry.FileTrace
	)
	if *debugAddr != "" || *traceFile != "" || *progress {
		reg = telemetry.New()
		telemetry.SetDefault(reg)
		man = telemetry.Collect("revft-mc")
		man.Experiment = *expName
		man.Engine = *engine
		man.Seed = *seed
		man.Trials = *trials
		man.Workers = *workers
		if *chaosRate > 0 {
			spec := &telemetry.ChaosSpec{Rate: *chaosRate, Seed: *chaosSeed}
			for _, op := range chaos.WriteOps {
				spec.Ops = append(spec.Ops, op.String())
			}
			man.Chaos = spec
		}
		if *cacheDir != "" {
			man.Cache = &telemetry.CacheSpec{Dir: *cacheDir}
		}
		if n := expectedTrials(*expName, *trials, *points, *maxLevel); n > 0 {
			reg.Gauge(telemetry.ExpectedTrialsMetric).Set(float64(n))
		}
	}
	if *debugAddr != "" {
		d, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer func() {
			// Graceful teardown: let an in-flight /metrics scrape or
			// pprof profile finish, then make sure the serve goroutine
			// is gone before the process reports success.
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			_ = d.Shutdown(sctx)
		}()
		fmt.Fprintf(os.Stderr, "revft-mc: debug server on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", d.Addr)
	}
	if *traceFile != "" {
		var err error
		ft, err = telemetry.NewTraceFile(*traceFile, man, telemetry.FileTraceOptions{
			FS: fsys, Metrics: reg, Warn: os.Stderr,
		})
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		tr = ft.Trace
	}

	// SIGINT/SIGTERM and -timeout cancel the sweeps and the ablations; the
	// others keep the default signal behaviour, so an interrupt stops them.
	ctx := context.Background()
	if !contextFree {
		var cancel context.CancelFunc
		ctx, cancel = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer cancel()
	}
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}
	var t *exp.Table
	var runErr error
	if sweepExp {
		var cache *resultcache.Store
		if *cacheDir != "" {
			// The cache shares the run's (possibly chaotic) filesystem:
			// entries are atomic and hash-verified on read, so injected
			// faults cost at most a miss, never a wrong table.
			cache = &resultcache.Store{Dir: *cacheDir, FS: fsys, Metrics: reg, Trace: tr}
		}
		o := exp.SweepOptions{
			Cache:      cache,
			Checkpoint: *checkpoint,
			Resume:     *resume,
			RelTol:     *reltol,
			ZeroScale:  *zeroscale,
			Metrics:    reg,
			Trace:      tr,
			Manifest:   man,
			FS:         fsys,
			// Root the trace's span tree at the run so CLI traces carry
			// the same run/<exp> → point causality the job server's
			// request → job → point chain does.
			Span: telemetry.Root("run/" + *expName),
		}
		if *progress {
			o.Progress = os.Stderr
		}
		switch *expName {
		case "recovery":
			t, runErr = exp.RecoveryCtx(ctx, gs, p, o)
		case "levels":
			t, runErr = exp.LevelsCtx(ctx, gs, *maxLevel, p, o)
		case "local":
			t, runErr = exp.LocalCtx(ctx, gs, p, o)
		case "adder":
			t, runErr = exp.AdderModuleCtx(ctx, *bits, gs, p, o)
		}
	} else {
		// Single-point runs get the registry-sourced heartbeat; sweep runs
		// already print per-point lines.
		var stopHeartbeat func()
		if *progress {
			stopHeartbeat = telemetry.StartHeartbeat(os.Stderr, reg, 2*time.Second)
		}
		switch *expName {
		case "entropy":
			t = exp.EntropyMeasured(gs, p)
		case "vonneumann":
			t = exp.VonNeumannChain(p)
		case "initablation":
			t, runErr = exp.InitAblation(ctx, gs, p)
		case "correlated":
			t, runErr = exp.CorrelatedNoise(ctx, *gmax, []float64{0, 0.25, 0.5, 0.75, 0.9}, p)
		case "interleave":
			t, runErr = exp.InterleaveAblation(ctx, gs, p)
		case "memory":
			t, runErr = exp.MemoryExperiment(ctx, *gmax, []int{1, 2, 5, 10, 20, 50}, p)
		case "idle":
			t, runErr = exp.IdleNoise(ctx, *gmax, []float64{0, 0.1, 0.5, 1, 2}, p)
		default:
			if stopHeartbeat != nil {
				stopHeartbeat()
			}
			return fmt.Errorf("unknown experiment %q", *expName)
		}
		if stopHeartbeat != nil {
			stopHeartbeat()
		}
	}

	if ft != nil {
		ft.EmitSnapshot(reg)
		ft.Emit("run_done", map[string]any{"ok": runErr == nil})
		if err := ft.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "revft-mc: trace %s: %v\n", *traceFile, err)
		}
		if err := ft.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "revft-mc: close trace %s: %v\n", *traceFile, err)
		}
		if ft.Degraded() {
			fmt.Fprintf(os.Stderr, "revft-mc: trace %s degraded; %d events counted in trace.events_dropped instead of written\n", *traceFile, ft.Dropped())
		}
	}

	if t == nil {
		return runErr
	}
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.Format())
	}
	if runErr != nil {
		if *checkpoint != "" {
			return fmt.Errorf("sweep interrupted (%w); completed points are checkpointed in %s — rerun with -resume to finish", runErr, *checkpoint)
		}
		return fmt.Errorf("sweep interrupted (%w); rerun with -checkpoint/-resume to make interruptions recoverable", runErr)
	}
	return nil
}

// remoteSpec is the job spec -server submits: spec for experiment expName,
// with maxLevel only for levels and bits only for adder — the experiments
// that read them, as the local sweep's spec records them. A spec carrying
// an unread field would hash to its own digest, so it could never adopt,
// hit or extend the same sweep submitted by another client.
func remoteSpec(expName string, maxLevel, bits int, spec server.JobSpec) server.JobSpec {
	spec.Experiment = expName
	switch expName {
	case "levels":
		spec.MaxLevel = maxLevel
	case "adder":
		spec.Bits = bits
	}
	return spec
}

// runRemote submits the sweep to a revft-server through the idempotent
// retrying client and renders the returned result.json as a table. The
// submission is keyed by spec digest: rerunning the same command after a
// crash (of this process or the server) adopts the original job instead
// of duplicating it, and a server-side cache hit returns instantly.
func runRemote(baseURL string, spec server.JobSpec, csv, progress bool) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	c := &client.Client{BaseURL: baseURL}
	if progress {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "revft-mc: "+format+"\n", args...)
		}
	}
	st, data, err := c.Run(ctx, spec)
	if err != nil {
		var jf *client.JobFailedError
		if errors.As(err, &jf) {
			return fmt.Errorf("remote job %s ended %s: %s", jf.Status.ID, jf.Status.State, jf.Status.Error)
		}
		return fmt.Errorf("remote run: %w", err)
	}
	t, err := remoteTable(baseURL, st, data)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.Format())
	}
	return nil
}

// remoteTable renders a server result.json generically: one row per
// result point with each estimate's rate, 95% Wilson CI, and trial
// count. The canonical machine-readable artifact stays the result.json
// itself (GET /jobs/{id}/result), keyed by spec digest.
func remoteTable(baseURL string, st server.JobStatus, data []byte) (*exp.Table, error) {
	var res server.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("decode remote result: %w", err)
	}
	if len(res.Grid) == 0 || len(res.Points) == 0 {
		return nil, errors.New("remote result is empty")
	}
	blocks := len(res.Points) / len(res.Grid)
	nEst := len(res.Points[0].Ests)
	t := &exp.Table{
		ID:    "remote",
		Title: fmt.Sprintf("%s sweep via %s", res.Experiment, baseURL),
	}
	if blocks > 1 {
		t.Header = append(t.Header, "block")
	}
	t.Header = append(t.Header, "eps")
	for i := 0; i < nEst; i++ {
		t.Header = append(t.Header,
			fmt.Sprintf("rate%d", i), fmt.Sprintf("ci95lo%d", i), fmt.Sprintf("ci95hi%d", i), fmt.Sprintf("trials%d", i))
	}
	for _, p := range res.Points {
		var cells []any
		if blocks > 1 {
			cells = append(cells, p.Index/len(res.Grid))
		}
		cells = append(cells, res.Grid[p.Index%len(res.Grid)])
		for _, e := range p.Ests {
			lo, hi := e.Wilson(1.96)
			cells = append(cells, e.Rate(), lo, hi, e.Trials)
		}
		t.AddRow(cells...)
	}
	t.AddNote("job %s (tenant %s, priority %s); spec digest %.16s…", st.ID, st.Tenant, st.Priority, st.SpecDigest)
	if st.Cache != "" {
		t.AddNote("server cache: %s (%d reused points)", st.Cache, st.ReusedPoints)
	}
	return t, nil
}

// expectedTrials returns the run's total trial budget for the heartbeat's
// ETA — an upper bound under adaptive early stopping — or 0 for the
// experiments whose budgets aren't a simple points × trials product.
func expectedTrials(expName string, trials, points, maxLevel int) int {
	switch expName {
	case "recovery", "entropy":
		return points * trials
	case "levels":
		return (maxLevel + 1) * points * trials
	case "local", "adder":
		// Two estimates per point, back to back.
		return 2 * points * trials
	case "vonneumann":
		chainTrials := trials / 100
		if chainTrials < 50 {
			chainTrials = 50
		}
		// Six eps values, two chain depths each.
		return 6 * 2 * chainTrials
	}
	return 0
}

// finite reports whether every x is neither NaN nor infinite.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
