package core

import (
	"context"
	"fmt"

	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/sim"
	"revft/internal/stats"
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
		Target: Target{
			Name:    fmt.Sprintf("gadget.%s.L%d", k, level),
			Circuit: b.Circuit(),
			In:      in,
			Out:     out,
			Logical: GateCircuit(k),
		},
		Kind:  k,
		Level: level,
	}
}

// LogicalErrorRate estimates g_logical by Monte Carlo: trials noisy
// executions under model m on the scalar engine, split across workers,
// seeded deterministically. A trial panic propagates.
func (g *Gadget) LogicalErrorRate(m noise.Model, trials, workers int, seed uint64) stats.Bernoulli {
	return sim.MonteCarlo(trials, workers, seed, g.Trial(Uniform, Noisy(m)))
}

// LogicalErrorRateCtx is ErrorRateCtx from trial 0, on the scalar engine.
func (g *Gadget) LogicalErrorRateCtx(ctx context.Context, m noise.Model, trials, workers int, seed uint64) (sim.Result, error) {
	return g.ErrorRateCtx(ctx, m, 0, 0, trials, workers, seed)
}

// LogicalErrorRateWideCtx is ErrorRateCtx from trial 0, words wide.
func (g *Gadget) LogicalErrorRateWideCtx(ctx context.Context, m noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	return g.ErrorRateCtx(ctx, m, words, 0, trials, workers, seed)
}

// LogicalErrorRateLanesCtx is ErrorRateCtx from trial 0, 64 lanes wide.
// It is kept only for the benchmark module, whose perfbench/layers.go
// calls it.
func (g *Gadget) LogicalErrorRateLanesCtx(ctx context.Context, m noise.Model, trials, workers int, seed uint64) (sim.Result, error) {
	return g.ErrorRateCtx(ctx, m, 1, 0, trials, workers, seed)
}

// LogicalErrorRateProcess is LogicalErrorRate under a stateful fault
// process (e.g. noise.Burst): each trial runs the circuit with a fresh
// sampler.
func (g *Gadget) LogicalErrorRateProcess(p noise.Process, trials, workers int, seed uint64) stats.Bernoulli {
	return sim.MonteCarlo(trials, workers, seed, g.Trial(Uniform, Process(p)))
}
