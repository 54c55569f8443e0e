package core

// The lane engine's side of Target: the same extended rectangle on
// 64·words bit-sliced trials per batch through the fused word-program
// compiler (lanes.CompileWideFor); words = 1 is the 64-lane engine. Inputs
// are drawn per lane word, the ideal outputs are computed bit-sliced
// (one word kernel per logical op) and the outputs are decoded by
// word-parallel recursive majority. Estimates are statistically
// equivalent to the scalar trial (same noise channel, same seeded trial
// blocks) but not bit-identical to it, nor across batch widths, since
// each consumes a block's randomness in its own order.

import (
	"context"

	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/telemetry"
)

// batch compiles the target once for a words-wide lane block, for the Out
// wires it decodes (ops no decoded wire depends on are not run), and
// returns the factory of the lane engine's batch trial: draw or broadcast
// the logical inputs lane-wise, encode, run the compiled fused program,
// evaluate the logical circuit on the input words in place, and set each
// lane's hit bit when any decoded output differs. Each worker's batch
// owns its lane state and buffers, so a batch allocates nothing.
//
// Every fault event is added to the context registry's "lanes.faults"
// counter. The count is per lane SLOT, not per counted trial: the engine
// simulates every lane of a block, so faults in the excess slots of a
// partial final block (which sim.MonteCarloWideCtx masks out of the hit
// count) are counted too. Per-trial fault rates must therefore be
// normalized by "lanes.slots", never by "lanes.trials"; the two differ
// whenever trials is not a multiple of the block's lane count.
func (t Target) batch(ctx context.Context, in Input, m noise.Model, words int) func() sim.WideBatchTrial {
	var outs []int
	for _, wires := range t.Out {
		outs = append(outs, wires...)
	}
	prog := lanes.CompileWideFor(t.Circuit, m, words, outs)
	faults := telemetry.Active(ctx).Counter("lanes.faults")
	logical := t.Logical.Ops()
	return func() sim.WideBatchTrial {
		st := lanes.NewWideState(t.Circuit.Width(), words)
		vals := make([][]uint64, len(t.In))
		for i := range vals {
			vals[i] = make([]uint64, words)
		}
		dec := make([]uint64, words)
		return func(r *rng.RNG, hit []uint64) {
			st.Reset()
			for i := range vals {
				for k := range vals[i] {
					if in.fixed {
						vals[i][k] = lanes.Broadcast(in.in>>uint(i)&1 == 1)
					} else {
						vals[i][k] = r.Uint64()
					}
				}
			}
			for i, wires := range t.In {
				st.EncodeBlock(wires, vals[i])
			}
			if n := prog.Run(st, r); n > 0 {
				faults.Add(int64(n))
			}
			var ops [3][]uint64
			for _, op := range logical {
				for j, w := range op.Targets {
					ops[j] = vals[w]
				}
				lanes.EvalWide(op.Kind, ops[:len(op.Targets)])
			}
			for k := range hit {
				hit[k] = 0
			}
			for i, wires := range t.Out {
				st.DecodeBlock(wires, dec)
				for k := range hit {
					hit[k] |= dec[k] ^ vals[i][k]
				}
			}
		}
	}
}
