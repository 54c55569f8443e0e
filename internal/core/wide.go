package core

// Lane-engine estimators: the bit-sliced counterparts of the scalar
// Monte Carlo methods, advancing 64·words trials per batch through the
// fused word-program compiler (lanes.CompileWide); words = 1 is the
// 64-lane engine. Estimates are statistically equivalent to the scalar
// path (same noise channel, same jumped RNG streams) but not
// bit-identical to it, nor across block widths, since each consumes
// randomness in its own order. Fault telemetry stays keyed by source op
// index, so per-gate-location counters are comparable across engines
// regardless of fusion.

import (
	"context"
	"fmt"

	"revft/internal/circuit"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/telemetry"
)

// lanesInstr builds the fault-injection telemetry handles for a compiled
// circuit from the context's registry: a total fault counter and a per-
// gate-location vector keyed by circuit.OpLabels under
// "lanes.op_faults.<label>". A context without an active registry yields
// nil, which WideProgram.RunInstr treats as no instrumentation at all.
func lanesInstr(ctx context.Context, label string, c *circuit.Circuit) *lanes.Instr {
	reg := telemetry.Active(ctx)
	if reg == nil {
		return nil
	}
	return &lanes.Instr{
		Faults:   reg.Counter("lanes.faults"),
		OpFaults: reg.CounterVec("lanes.op_faults."+label, c.OpLabels()),
	}
}

// wideBatch compiles the gadget once for a words-wide lane block and
// returns the wide batch trial: encode 64·words uniformly random logical
// inputs lane-wise, run the compiled fused program, decode with
// word-parallel recursive majority.
func (g *Gadget) wideBatch(ctx context.Context, m noise.Model, words int) sim.WideBatchTrial {
	prog := lanes.CompileWide(g.Circuit, m, words)
	in := lanesInstr(ctx, fmt.Sprintf("gadget.%s.L%d", g.Kind, g.Level), g.Circuit)
	nin := len(g.In)
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(g.Circuit.Width(), words)
		ins := make([][]uint64, nin)
		for i := range ins {
			ins[i] = make([]uint64, words)
			for k := range ins[i] {
				ins[i][k] = r.Uint64()
			}
		}
		for i, wires := range g.In {
			st.EncodeBlock(wires, ins[i])
		}
		prog.RunInstr(st, r, in)
		want := make([][]uint64, nin)
		for i := range want {
			want[i] = append([]uint64(nil), ins[i]...)
		}
		lanes.EvalWide(g.Kind, want)
		for k := range hit {
			hit[k] = 0
		}
		dec := make([]uint64, words)
		for i, wires := range g.Out {
			st.DecodeBlock(wires, dec)
			for k := range hit {
				hit[k] |= dec[k] ^ want[i][k]
			}
		}
	}
}

// LogicalErrorRateWideCtx estimates g_logical like LogicalErrorRateCtx,
// but on the words-wide lane-block engine (64·words trials per batch),
// with the same cancellation, partial results, and panic isolation.
func (g *Gadget) LogicalErrorRateWideCtx(ctx context.Context, m noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	return sim.MonteCarloWideCtx(ctx, trials, workers, seed, words, g.wideBatch(ctx, m, words))
}

// wideModuleBatch compiles the module once for the fixed logical input;
// all lanes carry the same input, the noise differs per lane.
func (m *Module) wideModuleBatch(ctx context.Context, in uint64, nm noise.Model, words int) sim.WideBatchTrial {
	prog := lanes.CompileWide(m.Physical, nm, words)
	instr := lanesInstr(ctx, "module", m.Physical)
	want := m.Logical.Eval(in)
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(m.Physical.Width(), words)
		for i, wires := range m.In {
			v := lanes.Broadcast(in>>uint(i)&1 == 1)
			for _, w := range wires {
				ww := st.Wire(w)
				for k := range ww {
					ww[k] = v
				}
			}
		}
		prog.RunInstr(st, r, instr)
		for k := range hit {
			hit[k] = 0
		}
		dec := make([]uint64, words)
		for i, wires := range m.Out {
			st.DecodeBlock(wires, dec)
			wv := lanes.Broadcast(want>>uint(i)&1 == 1)
			for k := range hit {
				hit[k] |= dec[k] ^ wv
			}
		}
	}
}

// ErrorRateWideCtx estimates the module's logical failure probability on
// the given input like ErrorRateCtx, but on the words-wide lane-block
// engine.
func (m *Module) ErrorRateWideCtx(ctx context.Context, in uint64, nm noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	return sim.MonteCarloWideCtx(ctx, trials, workers, seed, words, m.wideModuleBatch(ctx, in, nm, words))
}

// wideUnprotectedBatch compiles the bare logical circuit under noise — no
// encoding, no recovery.
func wideUnprotectedBatch(ctx context.Context, logical *circuit.Circuit, in uint64, nm noise.Model, words int) sim.WideBatchTrial {
	prog := lanes.CompileWide(logical, nm, words)
	instr := lanesInstr(ctx, "unprotected", logical)
	want := logical.Eval(in)
	width := logical.Width()
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(width, words)
		for w := 0; w < width; w++ {
			v := lanes.Broadcast(in>>uint(w)&1 == 1)
			ww := st.Wire(w)
			for k := range ww {
				ww[k] = v
			}
		}
		prog.RunInstr(st, r, instr)
		for k := range hit {
			hit[k] = 0
		}
		for w := 0; w < width; w++ {
			wv := lanes.Broadcast(want>>uint(w)&1 == 1)
			ww := st.Wire(w)
			for k := range hit {
				hit[k] |= ww[k] ^ wv
			}
		}
	}
}

// UnprotectedErrorRateWideCtx is UnprotectedErrorRateCtx on the
// words-wide lane-block engine.
func UnprotectedErrorRateWideCtx(ctx context.Context, logical *circuit.Circuit, in uint64, nm noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	return sim.MonteCarloWideCtx(ctx, trials, workers, seed, words, wideUnprotectedBatch(ctx, logical, in, nm, words))
}

// LogicalErrorRateLanesCtx is LogicalErrorRateWideCtx with words = 1, the
// 64-lane engine. It is kept only for the benchmark module, whose
// perfbench/layers.go calls it.
func (g *Gadget) LogicalErrorRateLanesCtx(ctx context.Context, m noise.Model, trials, workers int, seed uint64) (sim.Result, error) {
	return g.LogicalErrorRateWideCtx(ctx, m, 1, trials, workers, seed)
}

// ErrorRateLanesCtx is ErrorRateWideCtx with words = 1, the 64-lane
// engine. It is kept only for the benchmark module, whose
// perfbench/layers.go calls it.
func (m *Module) ErrorRateLanesCtx(ctx context.Context, in uint64, nm noise.Model, trials, workers int, seed uint64) (sim.Result, error) {
	return m.ErrorRateWideCtx(ctx, in, nm, 1, trials, workers, seed)
}
