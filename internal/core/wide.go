package core

// The lane engine's side of Target: the same extended rectangle on
// 64·words bit-sliced trials per batch through the fused word-program
// compiler (lanes.CompileWide); words = 1 is the 64-lane engine. Inputs
// are drawn per lane word, the ideal outputs are computed bit-sliced
// (one word kernel per logical op) and the outputs are decoded by
// word-parallel recursive majority. Estimates are statistically
// equivalent to the scalar trial (same noise channel, same seeded trial
// blocks) but not bit-identical to it, nor across batch widths, since
// each consumes a block's randomness in its own order. Fault telemetry
// stays keyed
// by source op index, so per-gate-location counters are comparable
// across engines regardless of fusion.

import (
	"context"

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

// batch compiles the target once for a words-wide lane block and returns
// the lane engine's batch trial: draw or broadcast the logical inputs
// lane-wise, encode, run the compiled fused program, evaluate the logical
// circuit on the input words in place, and set each lane's hit bit when
// any decoded output differs.
func (t Target) batch(ctx context.Context, in Input, m noise.Model, words int) sim.WideBatchTrial {
	prog := lanes.CompileWide(t.Circuit, m, words)
	instr := lanesInstr(ctx, t.Name, t.Circuit)
	logical := t.Logical.Ops()
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(t.Circuit.Width(), words)
		vals := make([][]uint64, len(t.In))
		for i := range vals {
			vals[i] = make([]uint64, words)
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
		prog.RunInstr(st, r, instr)
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
		dec := make([]uint64, words)
		for i, wires := range t.Out {
			st.DecodeBlock(wires, dec)
			for k := range hit {
				hit[k] |= dec[k] ^ vals[i][k]
			}
		}
	}
}
