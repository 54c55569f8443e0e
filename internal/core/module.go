package core

import (
	"context"

	"revft/internal/circuit"
	"revft/internal/noise"
	"revft/internal/sim"
	"revft/internal/stats"
)

// Module is a logical circuit compiled into its fault-tolerant physical
// implementation at a concatenation level: every logical gate is expanded
// through Figure 3's recursion (transversal application plus recovery),
// giving Γ_L physical operations per logical gate and 9^L physical bits per
// logical wire.
type Module struct {
	// Logical is the source circuit.
	Logical *circuit.Circuit
	// Physical is the compiled fault-tolerant circuit.
	Physical *circuit.Circuit
	// Level is the concatenation depth.
	Level int
	// In[i] and Out[i] list the physical wires holding logical wire i's
	// codeword before and after execution, in code.Decode order.
	In, Out [][]int
}

// CompileModule expands a logical circuit into its level-L fault-tolerant
// implementation.
func CompileModule(logical *circuit.Circuit, level int) *Module {
	b := NewBuilder(level, logical.Width())
	in := make([][]int, logical.Width())
	for i := range in {
		in[i] = b.DataWires(i)
	}
	for _, op := range logical.Ops() {
		b.Apply(op.Kind, op.Targets...)
	}
	out := make([][]int, logical.Width())
	for i := range out {
		out[i] = b.DataWires(i)
	}
	return &Module{
		Logical:  logical,
		Physical: b.Circuit(),
		Level:    level,
		In:       in,
		Out:      out,
	}
}

// Target returns the module as a Target named "module": the compiled
// physical circuit between the logical wires' codewords, compared with
// the logical source circuit.
func (m *Module) Target() Target {
	return Target{Name: "module", Circuit: m.Physical, In: m.In, Out: m.Out, Logical: m.Logical}
}

// ErrorRate estimates the module's logical failure probability on the given
// input by parallel Monte Carlo on the scalar engine. A trial panic
// propagates.
func (m *Module) ErrorRate(in uint64, nm noise.Model, trials, workers int, seed uint64) stats.Bernoulli {
	return sim.MonteCarlo(trials, workers, seed, m.Target().Trial(Fixed(in), Noisy(nm)))
}

// ErrorRateCtx is Target().InputErrorRateCtx from trial 0, scalar.
func (m *Module) ErrorRateCtx(ctx context.Context, in uint64, nm noise.Model, trials, workers int, seed uint64) (sim.Result, error) {
	return m.Target().InputErrorRateCtx(ctx, in, nm, 0, 0, trials, workers, seed)
}

// ErrorRateWideCtx is Target().InputErrorRateCtx from trial 0, words wide.
func (m *Module) ErrorRateWideCtx(ctx context.Context, in uint64, nm noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	return m.Target().InputErrorRateCtx(ctx, in, nm, words, 0, trials, workers, seed)
}

// ErrorRateLanesCtx is Target().InputErrorRateCtx from trial 0, 64 lanes
// wide. It is kept only for the benchmark module, whose
// perfbench/layers.go calls it.
func (m *Module) ErrorRateLanesCtx(ctx context.Context, in uint64, nm noise.Model, trials, workers int, seed uint64) (sim.Result, error) {
	return m.Target().InputErrorRateCtx(ctx, in, nm, 1, 0, trials, workers, seed)
}
