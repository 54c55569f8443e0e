package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"revft/internal/chaos"
	"revft/internal/core"
	"revft/internal/exact"
	"revft/internal/exp"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/threshold"
)

// The threshold-sweep workload is `revft-mc -exp levels -maxlevel 2
// -engine lanes512 -workers 1 -reltol 0.1 -zeroscale 1e-6 -checkpoint f`
// over a log-spaced grid from ρ/10 toward ρ: the paper's §2.3 operating
// point, where level-1 and level-2 rates are 1e-6 and below and the cost
// a user pays is CPU time to a stated confidence. One worker makes wall
// time equal CPU time. A miss is one sweep run until every point meets
// the stop rule (relative tolerance, zero-success scale, or trial
// ceiling); a hit is rerunning the same command with -resume against the
// completed checkpoint.

const (
	levelsMaxLevel = 2
	levelsRelTol   = 0.1
	levelsZero     = 1e-6
	// oracleZ is the Wilson interval width at which each level-0 and
	// level-1 estimate is compared with the exact oracle's bounds. Its
	// two-sided normal tail is 6.3e-5, so over the six compared
	// estimates a correct engine raises a false alarm in at most 3.8e-4
	// of runs.
	oracleZ = 4.0
)

func levelsGrid() []float64 {
	rho := threshold.MustThreshold(threshold.GNonLocalInit)
	return stats.LogSpace(rho/10, rho/2, 3)
}

func levelsParams(seed uint64, ceiling int) exp.MCParams {
	return exp.MCParams{Trials: ceiling, Workers: 1, Seed: seed, Engine: exp.EngineLanes512}
}

func levelsOptions(checkpoint string, resume bool) exp.SweepOptions {
	return exp.SweepOptions{Checkpoint: checkpoint, Resume: resume, RelTol: levelsRelTol, ZeroScale: levelsZero}
}

// levelsSpec is the sweep.Spec exp.LevelsCtx derives for the same run,
// so a sweep.Runner driven by the same point function writes the same
// checkpoint; the traced pass checks the digests agree.
func levelsSpec(grid []float64, p exp.MCParams) sweep.Spec {
	return sweep.Spec{
		Experiment: "levels", Grid: grid, Points: (levelsMaxLevel + 1) * len(grid),
		Trials: p.Trials, Workers: p.Workers, Seed: p.Seed, Engine: p.Engine,
		Extra: fmt.Sprintf("maxlevel=%d", levelsMaxLevel),
		Stop:  sweep.StopRule{RelTol: levelsRelTol, ZeroScale: levelsZero},
	}
}

// levelsSetup is the work before the first trial: resolve the levels
// driver, and build and compile each level's gadget for the 512-lane
// engine.
func levelsSetup(grid []float64, p exp.MCParams) error {
	if _, _, err := exp.ShardableSweep("levels", grid, levelsMaxLevel, 0, p); err != nil {
		return err
	}
	for l := 0; l <= levelsMaxLevel; l++ {
		g := core.NewGadget(gate.MAJ, l)
		lanes.CompileWide(g.Circuit, noise.Uniform(grid[0]), 8)
	}
	return nil
}

// sweepRun is one computed levels sweep.
type sweepRun struct {
	wall   time.Duration
	done   []sweep.PointResult
	digest string
	table  *exp.Table
}

func (s sweepRun) trials() int64 {
	var n int64
	for _, p := range s.done {
		for _, e := range p.Ests {
			n += int64(e.Trials)
		}
	}
	return n
}

// runLevels runs exp.LevelsCtx once into a fresh checkpoint and loads
// the checkpoint back as the sweep's output.
func runLevels(ctx context.Context, dir string, grid []float64, p exp.MCParams) (sweepRun, error) {
	ck := filepath.Join(dir, "levels.json")
	start := time.Now()
	tab, err := exp.LevelsCtx(ctx, grid, levelsMaxLevel, p, levelsOptions(ck, false))
	wall := time.Since(start)
	if err != nil {
		return sweepRun{}, err
	}
	c, err := sweep.Load(ck)
	if err != nil {
		return sweepRun{}, err
	}
	return sweepRun{wall: wall, done: c.Done, digest: c.Digest, table: tab}, nil
}

// oracle holds the exact failure polynomials of the level-0 and level-1
// MAJ gadgets.
type oracle struct {
	polys [2]*exact.Poly
	l1    time.Duration
}

func newOracle() (*oracle, error) {
	o := &oracle{}
	var err error
	if o.polys[0], err = exact.Enumerate(exact.Gadget(core.NewGadget(gate.MAJ, 0)), exact.Options{}); err != nil {
		return nil, err
	}
	start := time.Now()
	if o.polys[1], err = exact.Enumerate(exact.Gadget(core.NewGadget(gate.MAJ, 1)), exact.Options{MaxWeight: 3}); err != nil {
		return nil, err
	}
	o.l1 = time.Since(start)
	return o, nil
}

// check compares every level-0 and level-1 estimate with the oracle's
// bounds at width oracleZ and returns one message per disagreement.
func (o *oracle) check(grid []float64, done []sweep.PointResult) []string {
	var bad []string
	for _, pr := range done {
		l, i := pr.Index/len(grid), pr.Index%len(grid)
		if l > 1 {
			continue
		}
		lo, hi := o.polys[l].Bounds(grid[i])
		wlo, whi := pr.Ests[0].Wilson(oracleZ)
		if whi < lo || wlo > hi {
			bad = append(bad, fmt.Sprintf("level %d at g=%.4g: estimate %v outside oracle [%.4g, %.4g]", l, grid[i], pr.Ests[0], lo, hi))
		}
	}
	return bad
}

func runThreshold(ctx context.Context, r *run) error {
	grid := levelsGrid()
	p := levelsParams(r.cfg.seed, r.cfg.size.levelsCeiling)

	// Set-up takes under a millisecond here, so it is repeated more
	// often than the server workloads' set-up.
	var setups []float64
	for i := 0; i < 5*r.cfg.size.setupReps; i++ {
		d, err := timeSetup(func() error { return levelsSetup(grid, p) })
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	orc, err := newOracle()
	if err != nil {
		return err
	}

	// The untraced pass measures the end-to-end metrics; in a traced run
	// it also gives the baseline the traced pass is compared against.
	window := r.cfg.seconds
	if r.cfg.trace {
		window /= 2
	}
	var first sweepRun
	var misses, hits []float64
	stopRSS := sampleRSS()
	deadline := time.Now().Add(window)
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		dir, err := r.tempDir("levels")
		if err != nil {
			return err
		}
		r.attempt()
		sr, err := runLevels(ctx, dir, grid, p)
		switch {
		case err != nil:
			r.fail("levels sweep %d: %v", rep, err)
			continue
		case len(sr.done) != (levelsMaxLevel+1)*len(grid):
			r.fail("levels sweep %d: %d of %d points", rep, len(sr.done), (levelsMaxLevel+1)*len(grid))
			continue
		case first.done == nil:
			first = sr
			if bad := orc.check(grid, sr.done); len(bad) > 0 {
				r.fail("levels sweep disagrees with the exact oracle: %v", bad)
				continue
			}
		case !reflect.DeepEqual(sr.done, first.done):
			r.fail("levels sweep %d differs from the first sweep at the same seed", rep)
			continue
		}
		misses = append(misses, ms(sr.wall))
		for i := 0; i < r.cfg.size.resumes; i++ {
			r.attempt()
			start := time.Now()
			tab, err := exp.LevelsCtx(ctx, grid, levelsMaxLevel, p, levelsOptions(filepath.Join(dir, "levels.json"), true))
			wall := time.Since(start)
			if err != nil || !reflect.DeepEqual(tab, sr.table) {
				r.fail("resumed levels sweep differs from the computed one (err %v)", err)
				continue
			}
			hits = append(hits, ms(wall))
		}
	}
	rss := stopRSS()
	if first.done == nil {
		return fmt.Errorf("no levels sweep completed")
	}
	r.m.set("rss_mb", rss, 1)
	r.m.set("setup_s", median(setups), len(setups))
	r.m.set("miss_p50_ms", median(misses), len(misses))
	r.m.set("miss_p90_ms", percentile(misses, 0.9), len(misses))
	r.m.set("hit_p50_ms", median(hits), len(hits))
	r.m.set("hit_p75_ms", percentile(hits, 0.75), len(hits))
	r.m.set("work_per_s", float64(first.trials())/(median(misses)/1000), len(misses))

	if !r.cfg.trace {
		return nil
	}
	r.m.set("exact.enumerate_ms", ms(orc.l1), 1)
	var builds []float64
	for i := 0; i < r.cfg.size.setupReps; i++ {
		start := time.Now()
		if _, _, err := exp.ShardableSweep("levels", grid, levelsMaxLevel, 0, p); err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(start)))
	}
	r.m.set("exp.setup_ms", median(builds), len(builds))
	if err := tracedLevels(ctx, r, grid, p, first, median(misses), window); err != nil {
		return err
	}

	// Cross-seed spread: the same sweep at the next seed, so a change to
	// the random stream shows apart from a change in speed.
	var others []float64
	var other sweepRun
	for rep := 0; rep < 3; rep++ {
		dir, err := r.tempDir("levels-seed")
		if err != nil {
			return err
		}
		r.attempt()
		if other, err = runLevels(ctx, dir, grid, levelsParams(r.cfg.seed+1, r.cfg.size.levelsCeiling)); err != nil {
			r.fail("levels sweep at seed %d: %v", r.cfg.seed+1, err)
			return nil
		}
		if bad := orc.check(grid, other.done); len(bad) > 0 {
			r.fail("levels sweep at seed %d disagrees with the exact oracle: %v", r.cfg.seed+1, bad)
		}
		others = append(others, ms(other.wall))
	}
	r.m.set("sweep.trials_seed_spread", relSpread([]float64{float64(first.trials()), float64(other.trials())}), 2)
	r.m.set("sweep.tolerance_seed_spread", relSpread([]float64{median(misses), median(others)}), 2)
	return nil
}

// tracedLevels reruns the sweep through a sweep.Runner whose point
// function and checkpoint filesystem are wrapped in spans, and derives
// the sweep rows from them.
func tracedLevels(ctx context.Context, r *run, grid []float64, p exp.MCParams, ref sweepRun, untracedMS float64, window time.Duration) error {
	tr := newTracer()
	r.tr = tr
	fn, _, err := exp.ShardableSweep("levels", grid, levelsMaxLevel, 0, p)
	if err != nil {
		return err
	}
	spec := levelsSpec(grid, p)
	if spec.Digest() != ref.digest {
		r.fail("traced levels spec digest %.12s differs from exp.LevelsCtx's %.12s", spec.Digest(), ref.digest)
	}
	var walls, selfFracs []float64
	var points, stopped int
	deadline := time.Now().Add(window)
	for rep := 0; rep < 1 || time.Now().Before(deadline); rep++ {
		dir, err := r.tempDir("levels-traced")
		if err != nil {
			return err
		}
		runID := tr.seq.Add(1)
		job := fmt.Sprintf("sweep%d", rep)
		point := func(ctx context.Context, pt, chunk, trials int) ([]stats.Bernoulli, error) {
			s := tr.now()
			ests, err := fn(ctx, pt, chunk, trials)
			var n int64
			if len(ests) > 0 {
				n = int64(ests[0].Trials)
			}
			tr.record(span{Name: "sweep.point", Parent: runID, Job: job, Start: s, End: tr.now(), N: n, Attr: fmt.Sprint(pt), Err: err != nil})
			return ests, err
		}
		runner := &sweep.Runner{
			Spec: spec, Point: point, CheckpointPath: filepath.Join(dir, "levels.json"),
			FS: &traceFS{inner: chaos.OS, tr: tr, label: "sweep"},
		}
		r.attempt()
		s := tr.now()
		start := time.Now()
		out, err := runner.Run(ctx)
		wall := time.Since(start)
		tr.record(span{ID: runID, Name: "sweep.run", Job: job, Start: s, End: tr.now(), Err: err != nil})
		if err != nil || !out.Complete || !reflect.DeepEqual(out.Done, ref.done) {
			r.fail("traced levels sweep differs from exp.LevelsCtx's output (err %v)", err)
			continue
		}
		walls = append(walls, ms(wall))
		points += len(out.Done)
		for _, pr := range out.Done {
			if pr.Stopped {
				stopped++
			}
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no traced levels sweep completed")
	}
	spans := tr.snapshot()
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Name == "sweep.point" {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	saves, syncs := atomicWrites(spans, "fs.sweep.", "levels.json")
	for _, s := range spans {
		if s.Name == "sweep.run" && s.dur() > 0 {
			selfFracs = append(selfFracs, float64(s.dur()-covered(s.Start, s.End, children[s.ID]))/float64(s.dur()))
		}
	}
	r.m.set("sweep.trials", float64(ref.trials()), 1)
	r.m.set("sweep.converged_frac", float64(stopped)/float64(points), points)
	r.m.set("sweep.self_frac", mean(selfFracs), len(selfFracs))
	r.m.set("sweep.checkpoint_ms", mean(saves), len(saves))
	r.m.set("sweep.fsyncs_per_point", float64(syncs)/float64(points), points)
	r.m.set("telemetry.trace_overhead_frac", median(walls)/untracedMS-1, len(walls))
	return nil
}
