package core

import (
	"context"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/code"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
)

// Target is §2.2's extended rectangle as one object: ideally encode the
// logical inputs, run the physical circuit under noise, ideally decode,
// and compare with the logical function. Every Monte Carlo estimate —
// a gadget (Figure 3), a local cycle (§3), a compiled module or a bare
// circuit — and every exact enumeration (package exact) runs through it.
type Target struct {
	// Name labels the target in tables and keys the lane engine's
	// per-gate-location fault telemetry ("lanes.op_faults.<Name>").
	Name string
	// Circuit is the physical circuit run under noise.
	Circuit *circuit.Circuit
	// In[i] and Out[i] list the physical wires of logical operand i's
	// codeword before and after Circuit, in code.Decode order. Block
	// lengths must be powers of three (length 1 = an unencoded wire).
	In, Out [][]int
	// Logical is the ideal logical circuit, wire i carrying operand i: a
	// trial fails when a decoded output differs from Logical's noiseless
	// action on the input.
	Logical *circuit.Circuit
}

// GateCircuit returns the logical circuit of one k gate on its own
// operands, wire i carrying operand i.
func GateCircuit(k gate.Kind) *circuit.Circuit {
	ops := make([]int, k.Arity())
	for i := range ops {
		ops[i] = i
	}
	return circuit.New(k.Arity()).Append(k, ops...)
}

// Plain wraps a circuit as its own target: every wire is an unencoded
// length-1 codeword and the ideal behaviour is the circuit's noiseless
// action — the unprotected reference a compiled module is compared with.
func Plain(name string, c *circuit.Circuit) Target {
	blocks := make([][]int, c.Width())
	for i := range blocks {
		blocks[i] = []int{i}
	}
	return Target{Name: name, Circuit: c, In: blocks, Out: blocks, Logical: c}
}

// Input selects the logical inputs of a target's trials.
type Input struct {
	fixed bool
	in    uint64
}

// Uniform draws a fresh uniformly random logical input for every trial,
// before the run's own randomness: r.Bits(len(In)) in the scalar engine,
// one r.Uint64 per operand word in the lane engine. The logical circuit
// is tabulated over all its inputs, so it may have at most 20 wires.
var Uniform Input

// Fixed holds every trial at the packed logical input in (operand i in
// bit i); it draws no randomness.
func Fixed(in uint64) Input { return Input{fixed: true, in: in} }

// Run is the execution step of a scalar trial: the paper's randomizing
// channel (Noisy), a stateful fault process (Process) or a moment
// schedule with idle noise (Idle). It is a closed set of direct calls
// rather than a function value so the trial's state stays on the stack.
type Run struct {
	model   noise.Model
	process noise.Process
	sched   *sim.Scheduled
	idle    noise.Idle
}

// Noisy runs the circuit under the paper's randomizing fault channel m
// (sim.RunNoisy).
func Noisy(m noise.Model) Run { return Run{model: m} }

// Process runs the circuit under a fresh sampler of the stateful fault
// process p per trial (sim.RunProcess), e.g. noise.Burst.
func Process(p noise.Process) Run { return Run{process: p} }

// Idle runs s, the target circuit's moment schedule, with idle-wire noise
// m (sim.Scheduled.Run).
func Idle(s *sim.Scheduled, m noise.Idle) Run { return Run{sched: s, idle: m} }

func (run Run) exec(c *circuit.Circuit, st *bitvec.Vector, r *rng.RNG) {
	switch {
	case run.sched != nil:
		run.sched.Run(st, run.idle, r)
	case run.process != nil:
		sim.RunProcess(c, st, run.process.NewSampler(), r)
	default:
		sim.RunNoisy(c, st, run.model, r)
	}
}

// Trial returns the scalar engine's trial: draw or fix the logical input,
// encode it ideally, run, decode every output block ideally, and report
// whether any differs from the logical circuit's output.
func (t Target) Trial(in Input, run Run) func(*rng.RNG) bool {
	levIn, levOut := codeLevels(t.In), codeLevels(t.Out)
	var table []uint64
	want := uint64(0)
	if in.fixed {
		want = t.Logical.Eval(in.in)
	} else {
		table = t.Logical.Permutation()
	}
	return func(r *rng.RNG) bool {
		x, w := in.in, want
		if !in.fixed {
			x = r.Bits(len(t.In))
			w = table[x]
		}
		st := bitvec.New(t.Circuit.Width())
		for i, wires := range t.In {
			code.EncodeInto(st, wires, x>>uint(i)&1 == 1, levIn[i])
		}
		run.exec(t.Circuit, st, r)
		for i, wires := range t.Out {
			if code.Decode(st, wires, levOut[i]) != (w>>uint(i)&1 == 1) {
				return true
			}
		}
		return false
	}
}

// codeLevels maps codeword block lengths (3^L wires) to their levels.
func codeLevels(blocks [][]int) []int {
	out := make([]int, len(blocks))
	for i, wires := range blocks {
		out[i] = code.Level(len(wires))
	}
	return out
}

// ErrorRateCtx estimates the target's logical failure probability over
// uniformly random inputs under model m: words = 0 runs the scalar
// engine, words = K the K-word lane engine (64·K trials per batch). The
// run is cancellable, returns partial results on cancellation and
// recovers trial panics into a *sim.TrialPanicError.
func (t Target) ErrorRateCtx(ctx context.Context, m noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	return t.estimate(ctx, Uniform, m, words, trials, workers, seed)
}

// InputErrorRateCtx is ErrorRateCtx with every trial on the packed
// logical input in.
func (t Target) InputErrorRateCtx(ctx context.Context, in uint64, m noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	return t.estimate(ctx, Fixed(in), m, words, trials, workers, seed)
}

// estimate is the one place the scalar and lane engines are chosen
// between.
func (t Target) estimate(ctx context.Context, in Input, m noise.Model, words, trials, workers int, seed uint64) (sim.Result, error) {
	if words > 0 {
		return sim.MonteCarloWideCtx(ctx, trials, workers, seed, words, t.batch(ctx, in, m, words))
	}
	return sim.MonteCarloCtx(ctx, trials, workers, seed, t.Trial(in, Noisy(m)))
}
