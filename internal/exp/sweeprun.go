package exp

// Resilient sweep drivers: the cancellable, checkpointable Monte Carlo
// experiments (RecoveryCtx, LevelsCtx, LocalCtx, AdderModuleCtx), built on
// internal/sweep. A table is determined by (seed, engine, trials, stop
// rule); the worker count only sets how fast it is computed.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"revft/internal/adder"
	"revft/internal/chaos"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/resultcache"
	"revft/internal/rng"
	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
	"revft/internal/threshold"
)

// SweepOptions configures the resilient sweep runtime.
type SweepOptions struct {
	// Checkpoint, when non-empty, is the JSON checkpoint path rewritten
	// atomically after every completed sweep point.
	Checkpoint string
	// Resume loads Checkpoint before running and skips its completed
	// points; the checkpoint's spec digest must match this run's.
	Resume bool
	// RelTol enables adaptive early stopping per point: stop once every
	// estimate's 95% Wilson half-width is at most RelTol times its rate.
	// 0 keeps the fixed trial budget.
	RelTol float64
	// MinTrials / MaxTrials are the early-stopping floor and ceiling per
	// estimate; zero values default to min(1000, ceiling) and Trials.
	MinTrials int
	MaxTrials int
	// ZeroScale, when positive, lets zero-success points stop early once
	// their 95% Wilson upper bound is at most RelTol·ZeroScale; see
	// sweep.StopRule.ZeroScale. 0 keeps zero-success points running to
	// the ceiling.
	ZeroScale float64
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer
	// Metrics, when non-nil, collects the run's counters and histograms;
	// it is threaded through the sweep runner into the engines.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives the sweep's JSONL event stream.
	Trace *telemetry.Trace
	// Manifest, when non-nil, is stamped with the sweep's spec digest and
	// embedded in checkpoints.
	Manifest *telemetry.Manifest
	// FS, when non-nil, routes all checkpoint I/O through it — the hook
	// for chaos fault injection. Nil means the direct OS filesystem.
	FS chaos.FS
	// Retry governs checkpoint-write retries; the zero value is the
	// chaos package default policy.
	Retry chaos.Policy
	// Span, when non-zero, roots the sweep's trace events: sweep-level
	// events carry it and each point's events a per-point child, so one
	// trace file holding several sweeps reconstructs into causal trees.
	Span telemetry.Span
	// Cache, when non-nil, is a content-addressed result cache consulted
	// before running: an entry stored under this sweep's spec digest is
	// decoded and returned without any Monte Carlo, and a sweep that runs
	// to completion is stored back for the next identical invocation. A
	// corrupt entry is treated as a miss (and left for revft-verify
	// -cache to report), never served.
	Cache *resultcache.Store
}

func (o SweepOptions) runner(spec sweep.Spec, fn sweep.PointFunc) *sweep.Runner {
	return &sweep.Runner{
		Spec:           spec,
		Point:          fn,
		CheckpointPath: o.Checkpoint,
		Resume:         o.Resume,
		Progress:       o.Progress,
		Metrics:        o.Metrics,
		Trace:          o.Trace,
		Manifest:       o.Manifest,
		FS:             o.FS,
		Retry:          o.Retry,
		Span:           o.Span,
	}
}

// runCached executes the sweep with the cache (if any) in front: a hit
// decodes the stored entry and returns a complete outcome with zero
// Monte Carlo; a miss runs the sweep and stores the completed outcome
// for the next identical invocation. The payload is the familiar
// checkpoint JSON (digest + spec + done points + producing manifest), so
// a cache entry is self-describing and inspectable with the same tools
// as a checkpoint. Only complete outcomes are stored — partial sweeps
// keep flowing through the checkpoint/resume path.
func (o SweepOptions) runCached(ctx context.Context, spec sweep.Spec, fn sweep.PointFunc) (*sweep.Outcome, error) {
	if o.Cache == nil {
		return o.runner(spec, fn).Run(ctx)
	}
	digest := spec.Digest()
	if payload, _, err := o.Cache.Get(digest, o.Span); err == nil {
		var ck sweep.Checkpoint
		if jerr := json.Unmarshal(payload, &ck); jerr == nil && ck.Digest == digest && len(ck.Done) == spec.Points {
			if o.Progress != nil {
				fmt.Fprintf(o.Progress, "cache hit: %d points served from entry %.12s\n", len(ck.Done), digest)
			}
			return &sweep.Outcome{Done: ck.Done, Complete: true, Resumed: len(ck.Done)}, nil
		}
	}
	out, err := o.runner(spec, fn).Run(ctx)
	if err == nil && out != nil && out.Complete {
		ck := sweep.Checkpoint{Digest: digest, Spec: spec, Done: out.Done, Manifest: o.Manifest}
		if payload, merr := json.Marshal(&ck); merr == nil {
			tool := ""
			if o.Manifest != nil {
				tool = o.Manifest.Tool
			}
			meta := resultcache.Meta{Experiment: spec.Experiment, Tool: tool}
			if perr := o.Cache.Put(ctx, digest, meta, payload, o.Span); perr != nil && o.Progress != nil {
				fmt.Fprintf(o.Progress, "cache store failed (result unaffected): %v\n", perr)
			}
		}
	}
	return out, err
}

// recordGateCounts publishes a driver's measured gate counts as gauges
// (exp.<experiment>.<name>) and as one gate_counts trace event, so a run's
// circuit sizes are diffable against the paper's analytic G values without
// rebuilding the circuits. counts alternates name, value pairs.
func (o SweepOptions) recordGateCounts(experiment string, counts map[string]int) {
	if o.Metrics != nil {
		for name, v := range counts {
			o.Metrics.Gauge("exp." + experiment + "." + name).Set(float64(v))
		}
	}
	if o.Trace != nil {
		fields := map[string]any{"experiment": experiment}
		for name, v := range counts {
			fields[name] = v
		}
		o.Trace.Emit("gate_counts", fields)
	}
}

// engineName is Engine with the empty-string default made explicit, so
// checkpoint digests don't distinguish "" from "scalar".
func (p MCParams) engineName() string {
	if p.Engine == "" {
		return EngineScalar
	}
	return p.Engine
}

func sweepSpec(experiment string, grid []float64, points int, p MCParams, o SweepOptions, extra string) sweep.Spec {
	return sweep.Spec{
		Experiment: experiment,
		Grid:       grid,
		Points:     points,
		Trials:     p.Trials,
		Workers:    p.Workers,
		Seed:       p.Seed,
		Engine:     p.engineName(),
		Extra:      extra,
		Stop:       sweep.StopRule{RelTol: o.RelTol, MinTrials: o.MinTrials, MaxTrials: o.MaxTrials, ZeroScale: o.ZeroScale},
	}
}

// markSweepTable annotates an interrupted sweep's table: the title gains a
// [PARTIAL] tag and notes record what is missing, so a truncated table can
// never be mistaken for a finished run. Completed sweeps pass through
// untouched, keeping resumed output bit-identical to uninterrupted output.
func markSweepTable(t *Table, out *sweep.Outcome, spec sweep.Spec, err error) {
	if err == nil && out.Complete {
		return
	}
	t.Title += " [PARTIAL]"
	completed := 0
	for _, pr := range out.Done {
		if !pr.Partial {
			completed++
		}
	}
	t.AddNote("sweep interrupted: %d of %d points completed; rerun with the same spec and -resume to finish",
		completed, spec.Points)
	for _, pr := range out.Done {
		if !pr.Partial {
			continue
		}
		var ts []string
		for _, e := range pr.Ests {
			ts = append(ts, fmt.Sprint(e.Trials))
		}
		t.AddNote("point %d was interrupted mid-estimate (trials accumulated: %s); it is neither shown nor checkpointed",
			pr.Index, strings.Join(ts, ", "))
	}
}

// noteAdaptive records the per-point trial counts an adaptive run settled
// on. The counts are deterministic for a fixed spec, so resumed and
// uninterrupted runs print the same note.
func noteAdaptive(t *Table, out *sweep.Outcome, o SweepOptions) {
	if o.RelTol <= 0 {
		return
	}
	var ts []string
	for _, pr := range out.Done {
		if !pr.Partial && len(pr.Ests) > 0 {
			ts = append(ts, fmt.Sprint(pr.Ests[0].Trials))
		}
	}
	t.AddNote("adaptive early stopping: reltol %g, trials per point: %s", o.RelTol, strings.Join(ts, ", "))
}

// Salt domains keep pointSeed streams disjoint across drivers that could
// otherwise estimate at the same (seed, ε): each driver's estimates get
// a distinct high byte, with the low bits distinguishing co-located
// estimates (concatenation level, 2D-vs-1D cycle, bare-vs-FT adder).
const (
	saltRecovery = 0 << 8
	saltLevels   = 1 << 8 // + level
	saltLocal    = 2 << 8 // +0 cycle2d, +1 cycle1d
	saltAdder    = 3 << 8 // +0 bare, +1 FT
)

// pointSeed derives the base RNG seed for one estimate of one sweep
// point from the run seed, the point's swept noise value ε, and a salt
// naming the estimate within the point. Deriving from the ε *value*
// rather than the point's grid index makes every estimate independent of
// how the grid is laid out: the same (seed, ε, salt) reproduces the same
// trial stream whether ε sits at index 0 of a 2-point grid or index 17
// of a 50-point one. That value-addressing preserves the shard-vs-
// unsharded equality the job server relies on (any partition of the
// points computes identical estimates) and is what lets the result cache
// serve a cached superset ε-grid for a subset spec bit-identically.
func pointSeed(base uint64, eps float64, salt uint64) uint64 {
	h := rng.Mix64(base ^ 0x9e3779b97f4a7c15)
	h = rng.Mix64(h ^ math.Float64bits(eps))
	h = rng.Mix64(h ^ salt)
	return h
}

// recoveryPointFunc builds the recovery sweep's per-point estimator over
// global point indices, plus its gate-count record. The randomness
// depends only on (p.Seed, gs[pt], trial index) — never on pt itself or
// the worker count — so any
// partition or re-indexing of the points (one runner, shards of a job
// server, a subset grid served from the result cache) produces
// bit-identical estimates.
func recoveryPointFunc(gs []float64, p MCParams) (sweep.PointFunc, map[string]int) {
	gad := core.NewGadget(gate.MAJ, 1)
	counts := map[string]int{
		"physical_ops": gad.Circuit.Len(),
		"G_analytic":   threshold.GNonLocalInit,
	}
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		seed := pointSeed(p.Seed, gs[pt], saltRecovery)
		res, rerr := gad.ErrorRateCtx(ctx, noise.Uniform(gs[pt]), p.wideWords(), start, trials, p.Workers, seed)
		return []stats.Bernoulli{res.Bernoulli}, rerr
	}, counts
}

// RecoveryCtx measures the Figure 2 extended rectangle (level-1 MAJ
// gadget) against the Equation 1 bound across gs, on the resilient sweep
// runtime: cancellable via ctx, checkpoint/resume via SweepOptions,
// optional adaptive early stopping. On interruption it returns the
// partial table (marked) together
// with the cause.
func RecoveryCtx(ctx context.Context, gs []float64, p MCParams, o SweepOptions) (*Table, error) {
	fn, counts := recoveryPointFunc(gs, p)
	o.recordGateCounts("recovery", counts)
	spec := sweepSpec("recovery", gs, len(gs), p, o, "")
	out, err := o.runCached(ctx, spec, fn)
	if out == nil {
		return nil, err
	}

	t := &Table{
		ID:     "F2",
		Title:  "Level-1 logical error rate vs Equation 1 bound (G = 11, init counted)",
		Header: []string{"g", "measured g_logical", "95% CI", "Eq.1 bound", "bound holds", "g_logical < g"},
	}
	for _, pr := range out.Done {
		if pr.Partial {
			continue
		}
		g := gs[pr.Index]
		est := pr.Ests[0]
		lo, hi := est.Wilson(1.96)
		bound := threshold.LogicalBound(g, threshold.GNonLocalInit)
		t.AddRow(g, est.Rate(), ciStr(lo, hi), bound, lo <= bound, hi < g)
	}
	t.AddNote("below threshold ρ = 1/165 the measured rate must fall under both g and the quadratic bound")
	noteAdaptive(t, out, o)
	markSweepTable(t, out, spec, err)
	return t, err
}

// levelsPointFunc builds the concatenation sweep's per-point estimator;
// sweep points are the (level, g) cross product in row order.
func levelsPointFunc(gs []float64, maxLevel int, p MCParams) (sweep.PointFunc, map[string]int) {
	gads := make([]*core.Gadget, maxLevel+1)
	counts := map[string]int{"G_analytic": threshold.GNonLocalInit}
	for l := range gads {
		gads[l] = core.NewGadget(gate.MAJ, l)
		counts[fmt.Sprintf("L%d.physical_ops", l)] = gads[l].Circuit.Len()
	}
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		l, i := pt/len(gs), pt%len(gs)
		seed := pointSeed(p.Seed, gs[i], saltLevels+uint64(l))
		res, rerr := gads[l].ErrorRateCtx(ctx, noise.Uniform(gs[i]), p.wideWords(), start, trials, p.Workers, seed)
		return []stats.Bernoulli{res.Bernoulli}, rerr
	}, counts
}

// LevelsCtx is RecoveryCtx for the Figure 3 levels 0–maxLevel against
// Equation 2; sweep points are the (level, g) cross product in row order.
func LevelsCtx(ctx context.Context, gs []float64, maxLevel int, p MCParams, o SweepOptions) (*Table, error) {
	fn, counts := levelsPointFunc(gs, maxLevel, p)
	o.recordGateCounts("levels", counts)
	spec := sweepSpec("levels", gs, (maxLevel+1)*len(gs), p, o, fmt.Sprintf("maxlevel=%d", maxLevel))
	out, err := o.runCached(ctx, spec, fn)
	if out == nil {
		return nil, err
	}

	t := &Table{
		ID:     "F3",
		Title:  "Concatenation levels: measured logical error rate vs Equation 2 (G = 11)",
		Header: []string{"g", "level", "measured", "95% CI", "Eq.2 bound"},
	}
	for _, pr := range out.Done {
		if pr.Partial {
			continue
		}
		l, i := pr.Index/len(gs), pr.Index%len(gs)
		g := gs[i]
		est := pr.Ests[0]
		lo, hi := est.Wilson(1.96)
		t.AddRow(g, l, est.Rate(), ciStr(lo, hi), threshold.LevelRate(g, threshold.GNonLocalInit, l))
	}
	t.AddNote("below threshold, deeper levels suppress errors doubly exponentially; above, they amplify")
	noteAdaptive(t, out, o)
	markSweepTable(t, out, spec, err)
	return t, err
}

// localPointFunc builds the near-neighbor sweep's per-point estimator;
// each point estimates the 2D and 1D cycles back to back.
func localPointFunc(gs []float64, p MCParams) (sweep.PointFunc, map[string]int) {
	c2 := lattice.NewCycle2D(gate.MAJ)
	c1 := lattice.NewCycle1D(gate.MAJ)
	counts := map[string]int{
		"cycle2d.physical_ops": c2.Circuit.Len(),
		"cycle2d.G_analytic":   threshold.G2DInit,
		"cycle1d.physical_ops": c1.Circuit.Len(),
		"cycle1d.G_analytic":   threshold.G1DInit,
	}
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		m, w := noise.Uniform(gs[pt]), p.wideWords()
		e2, rerr := c2.ErrorRateCtx(ctx, m, w, start, trials, p.Workers, pointSeed(p.Seed, gs[pt], saltLocal))
		if rerr != nil {
			return []stats.Bernoulli{e2.Bernoulli, {}}, rerr
		}
		e1, rerr := c1.ErrorRateCtx(ctx, m, w, start, trials, p.Workers, pointSeed(p.Seed, gs[pt], saltLocal+1))
		return []stats.Bernoulli{e2.Bernoulli, e1.Bernoulli}, rerr
	}, counts
}

// LocalCtx is RecoveryCtx for the level-1 2D and 1D local cycles; each
// point estimates both back to back.
func LocalCtx(ctx context.Context, gs []float64, p MCParams, o SweepOptions) (*Table, error) {
	fn, counts := localPointFunc(gs, p)
	o.recordGateCounts("local", counts)
	spec := sweepSpec("local", gs, len(gs), p, o, "")
	out, err := o.runCached(ctx, spec, fn)
	if out == nil {
		return nil, err
	}

	t := &Table{
		ID:     "F4/F7",
		Title:  "Near-neighbor cycles: measured level-1 logical error rates",
		Header: []string{"g", "2D measured", "2D/g²", "1D measured", "1D/g", "1D/g²"},
	}
	for _, pr := range out.Done {
		if pr.Partial {
			continue
		}
		g := gs[pr.Index]
		e2, e1 := pr.Ests[0], pr.Ests[1]
		t.AddRow(g, e2.Rate(), e2.Rate()/(g*g), e1.Rate(), e1.Rate()/g, e1.Rate()/(g*g))
	}
	t.AddNote("2D scales quadratically (strict single-fault tolerance, verified exhaustively)")
	t.AddNote("1D keeps a linear component from data-data crossing swaps — the channel §3.2's accounting misses")
	noteAdaptive(t, out, o)
	markSweepTable(t, out, spec, err)
	return t, err
}

// adderPointFunc builds the adder-module sweep's per-point estimator;
// each point estimates the bare and the level-1 fault-tolerant adder back
// to back on fixed representative operands.
func adderPointFunc(n int, gs []float64, p MCParams) (sweep.PointFunc, map[string]int) {
	logical, l := adder.New(n)
	m := core.CompileModule(logical, 1)
	bare, ft := core.Plain("unprotected", logical), m.Target()
	// Fixed representative operands.
	var in uint64
	a, b := uint64(0b1011)&((1<<uint(n))-1), uint64(0b0110)&((1<<uint(n))-1)
	for i := 0; i < n; i++ {
		in |= (a >> uint(i) & 1) << uint(l.A[i])
		in |= (b >> uint(i) & 1) << uint(l.B[i])
	}
	counts := map[string]int{
		"logical_ops":  logical.GateCount(),
		"physical_ops": m.Physical.GateCount(),
		"wires":        m.Physical.Width(),
	}
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		nm := noise.Uniform(gs[pt])
		sb := pointSeed(p.Seed, gs[pt], saltAdder)
		sf := pointSeed(p.Seed, gs[pt], saltAdder+1)
		eb, rerr := bare.InputErrorRateCtx(ctx, in, nm, p.wideWords(), start, trials, p.Workers, sb)
		if rerr != nil {
			return []stats.Bernoulli{eb.Bernoulli, {}}, rerr
		}
		ef, rerr := ft.InputErrorRateCtx(ctx, in, nm, p.wideWords(), start, trials, p.Workers, sf)
		return []stats.Bernoulli{eb.Bernoulli, ef.Bernoulli}, rerr
	}, counts
}

// AdderModuleCtx is RecoveryCtx for the n-bit Cuccaro adder, bare and
// compiled to level 1; each point estimates both back to back.
func AdderModuleCtx(ctx context.Context, n int, gs []float64, p MCParams, o SweepOptions) (*Table, error) {
	fn, counts := adderPointFunc(n, gs, p)
	o.recordGateCounts("adder", counts)
	spec := sweepSpec("adder", gs, len(gs), p, o, fmt.Sprintf("bits=%d", n))
	out, err := o.runCached(ctx, spec, fn)
	if out == nil {
		return nil, err
	}

	t := &Table{
		ID:     "B1",
		Title:  fmt.Sprintf("%d-bit reversible adder module: bare vs level-1 FT", n),
		Header: []string{"g", "bare measured", "1−(1−g)^T", "FT level-1 measured", "FT wins"},
	}
	T := float64(counts["logical_ops"])
	for _, pr := range out.Done {
		if pr.Partial {
			continue
		}
		g := gs[pr.Index]
		bare, ft := pr.Ests[0], pr.Ests[1]
		t.AddRow(g, bare.Rate(), threshold.UnprotectedModuleError(g, T), ft.Rate(), ft.Rate() < bare.Rate())
	}
	t.AddNote("T = %d logical gates; FT module has %d physical ops on %d wires",
		counts["logical_ops"], counts["physical_ops"], counts["wires"])
	noteAdaptive(t, out, o)
	markSweepTable(t, out, spec, err)
	return t, err
}
