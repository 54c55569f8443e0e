package core

import (
	"context"
	"fmt"

	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/sim"
)

// Gadget is one fault-tolerant logical gate at a concatenation level,
// packaged for threshold experiments as a Target: the flat physical
// circuit plus the wire maps needed to encode ideal inputs and decode the
// outputs.
//
// The experiment it supports is the extended rectangle of §2.2: ideally
// encoded inputs, one noisy logical gate followed by its recovery cycles,
// then ideal decoding. The measured failure probability is the paper's
// g_logical.
type Gadget struct {
	Target
	Kind  gate.Kind
	Level int
}

// NewGadget builds the fault-tolerant implementation of k at the given
// concatenation level.
func NewGadget(k gate.Kind, level int) *Gadget {
	nbits := k.Arity()
	b := NewBuilder(level, nbits)
	in := make([][]int, nbits)
	for i := range in {
		in[i] = b.DataWires(i)
	}
	operands := make([]int, nbits)
	for i := range operands {
		operands[i] = i
	}
	b.Apply(k, operands...)
	out := make([][]int, nbits)
	for i := range out {
		out[i] = b.DataWires(i)
	}
	return &Gadget{
		Target: NewTarget(fmt.Sprintf("gadget.%s.L%d", k, level), b.Circuit(), in, out, GateCircuit(k)),
		Kind:   k,
		Level:  level,
	}
}

// LogicalErrorRateCtx is Estimate from trial 0 over uniform inputs under
// m, on the scalar engine.
func (g *Gadget) LogicalErrorRateCtx(ctx context.Context, m noise.Model, trials, workers int, seed uint64) (sim.Result, error) {
	return g.Estimate(ctx, Uniform, Noisy(m), 0, 0, trials, workers, seed)
}

// LogicalErrorRateWideCtx is LogicalErrorRateCtx words wide.
func (g *Gadget) LogicalErrorRateWideCtx(ctx context.Context, m noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	return g.Estimate(ctx, Uniform, Noisy(m), words, 0, trials, workers, seed)
}

// LogicalErrorRateLanesCtx is LogicalErrorRateCtx 64 lanes wide. It is
// kept only for the benchmark module, whose perfbench/layers.go calls it.
func (g *Gadget) LogicalErrorRateLanesCtx(ctx context.Context, m noise.Model, trials, workers int, seed uint64) (sim.Result, error) {
	return g.Estimate(ctx, Uniform, Noisy(m), 1, 0, trials, workers, seed)
}
