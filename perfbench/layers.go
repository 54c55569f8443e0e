package main

import (
	"context"
	"fmt"
	"time"

	"revft/internal/adder"
	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/exp"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/telemetry"
)

// The kernel, engine, harness, oracle and telemetry rows are direct
// calls into those modules, timed in every traced run, at g = 1e-3 with
// one worker unless a row says otherwise. Each timing is the median of
// three slices of about size.layerSlice.

// adderModule is the level-1 fault-tolerant 4-bit Cuccaro adder and the
// fixed operands exp's adder sweep runs it on.
func adderModule() (*core.Module, uint64) {
	logical, l := adder.New(4)
	var in uint64
	a, b := uint64(0b1011), uint64(0b0110)
	for i := 0; i < 4; i++ {
		in |= (a >> uint(i) & 1) << uint(l.A[i])
		in |= (b >> uint(i) & 1) << uint(l.B[i])
	}
	return core.CompileModule(logical, 1), in
}

func laneCircuit(name string) *circuit.Circuit {
	switch name {
	case "recovery":
		return core.NewGadget(gate.MAJ, 1).Circuit
	case "gadget2":
		return core.NewGadget(gate.MAJ, 2).Circuit
	case "cycle2d":
		return lattice.NewCycle2D(gate.MAJ).Circuit
	case "cycle1d":
		return lattice.NewCycle1D(gate.MAJ).Circuit
	}
	m, _ := adderModule()
	return m.Physical
}

// perCall returns the median time of one call to f, in ns, over three
// slices of about d each.
func perCall(d time.Duration, f func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if el := time.Since(start); el >= d/4 {
			n = int(float64(n)*float64(d)/float64(el)) + 1
			break
		}
		n *= 2
	}
	var xs []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// perTrial returns the median ns per trial of an estimator over three
// runs sized to about d each from a 4096-trial pilot.
func perTrial(d time.Duration, est func(trials int) error) (float64, error) {
	const pilot = 4096
	start := time.Now()
	if err := est(pilot); err != nil {
		return 0, err
	}
	trials := int(float64(pilot) * float64(d) / float64(time.Since(start)))
	trials = (trials/512 + 1) * 512
	var xs []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		if err := est(trials); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(trials))
	}
	return median(xs), nil
}

func runLayers(ctx context.Context, r *run) error {
	d := r.cfg.size.layerSlice
	m := noise.Uniform(1e-3)

	// lanes: ns per word-op of one program run; a K-word program runs
	// Len() fused ops over K words.
	for _, name := range laneCircuits {
		c := laneCircuit(name)
		p := lanes.Compile(c, m)
		st := lanes.NewState(p.Width())
		rnd := rng.New(r.cfg.seed)
		r.m.set(fmt.Sprintf("lanes.%s.lanes.ns_per_op", name), perCall(d, func() { p.Run(st, rnd) })/float64(p.Len()), 3)
		for _, k := range []int{1, 4, 8} {
			w := lanes.CompileWide(c, m, k)
			ws := lanes.NewWideState(w.Width(), k)
			r.m.set(fmt.Sprintf("lanes.%s.k%d.ns_per_op", name, k), perCall(d, func() { w.Run(ws, rnd) })/float64(w.Len()*k), 3)
			if k == 8 {
				r.m.set(fmt.Sprintf("lanes.%s.ops", name), float64(w.Len()), 1)
				r.m.set(fmt.Sprintf("lanes.%s.fused", name), float64(w.Fused()), 1)
				r.m.set(fmt.Sprintf("lanes.%s.samplers", name), float64(w.Samplers()), 1)
			}
		}
	}

	// core: ns per trial through the gadget and module estimators.
	seed := r.cfg.seed
	words := map[string]int{"lanes256": 4, "lanes512": 8}
	gadgets := map[string]*core.Gadget{"recovery": core.NewGadget(gate.MAJ, 1), "gadget2": core.NewGadget(gate.MAJ, 2)}
	mod, in := adderModule()
	for _, c := range coreCircuits {
		for _, e := range engines {
			est := func(n int) error {
				var err error
				switch g := gadgets[c]; {
				case g != nil && e == "scalar":
					_, err = g.LogicalErrorRateCtx(ctx, m, n, 1, seed)
				case g != nil && e == "lanes":
					_, err = g.LogicalErrorRateLanesCtx(ctx, m, n, 1, seed)
				case g != nil:
					_, err = g.LogicalErrorRateWideCtx(ctx, m, words[e], n, 1, seed)
				case e == "scalar":
					_, err = mod.ErrorRateCtx(ctx, in, m, n, 1, seed)
				case e == "lanes":
					_, err = mod.ErrorRateLanesCtx(ctx, in, m, n, 1, seed)
				default:
					_, err = mod.ErrorRateWideCtx(ctx, in, m, words[e], n, 1, seed)
				}
				return err
			}
			ns, err := perTrial(d, est)
			if err != nil {
				return err
			}
			r.m.set(fmt.Sprintf("core.%s.%s.ns_per_trial", c, e), ns, 3)
		}
	}

	// exp.local: the cycles have no core estimator, so they are timed
	// through the local sweep's point function (one point, both cycles).
	for _, e := range engines {
		ns, err := perTrial(d, func(n int) error {
			fn, _, err := exp.ShardableSweep("local", []float64{1e-3}, 0, 0, exp.MCParams{Trials: n, Workers: 1, Seed: seed, Engine: e})
			if err == nil {
				_, err = fn(ctx, 0, 0, n)
			}
			return err
		})
		if err != nil {
			return err
		}
		r.m.set(fmt.Sprintf("exp.local.%s.ns_per_trial", e), ns, 3)
	}

	// sim: the harness's speedup from one worker to two on a fixed-trial
	// 512-lane recovery estimate.
	g1 := gadgets["recovery"]
	t1, err := perTrial(4*d, func(n int) error {
		_, err := g1.LogicalErrorRateWideCtx(ctx, m, 8, n, 1, seed)
		return err
	})
	if err != nil {
		return err
	}
	t2, err := perTrial(4*d, func(n int) error {
		_, err := g1.LogicalErrorRateWideCtx(ctx, m, 8, n, 2, seed)
		return err
	})
	if err != nil {
		return err
	}
	r.m.set("sim.scaling_w2", t1/t2, 3)

	// telemetry: the 64-lane engine with a registry in the context
	// against the same engine bare, interleaved.
	var bare, instr []float64
	ictx := telemetry.NewContext(ctx, telemetry.New())
	for k := 0; k < 3; k++ {
		for _, c := range []context.Context{ctx, ictx} {
			ns, err := perTrial(d, func(n int) error {
				_, err := g1.LogicalErrorRateLanesCtx(c, m, n, 1, seed)
				return err
			})
			if err != nil {
				return err
			}
			if c == ctx {
				bare = append(bare, ns)
			} else {
				instr = append(instr, ns)
			}
		}
	}
	r.m.set("telemetry.instrumented_frac", median(instr)/median(bare)-1, len(bare))

	if _, ok := r.m["exact.enumerate_ms"]; !ok {
		orc, err := newOracle()
		if err != nil {
			return err
		}
		r.m.set("exact.enumerate_ms", ms(orc.l1), 1)
	}
	return nil
}
