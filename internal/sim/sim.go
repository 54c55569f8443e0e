// Package sim executes reversible circuits under noise.
//
// It provides four execution modes:
//
//   - RunNoisy: sample the paper's random fault channel once;
//   - RunInjected and RunInjectedList: deterministic fault injection from
//     a plan; core.Target.Injected runs the list form to prove
//     fault-tolerance claims exhaustively;
//   - MonteCarlo: a parallel trial harness over seeded trial blocks;
//   - MonteCarloWideCtx: the same harness on bit-sliced lane batches of
//     64·K trials (see package lanes), for runs where trial count
//     dominates.
//
// MonteCarloCtx and MonteCarloWideCtx are context-aware, for long-running
// sweeps: cancellable between trial blocks, returning the whole blocks
// completed so far, and recovering trial panics into typed, reproducible
// *TrialPanicError values.
package sim

import (
	"context"
	"fmt"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/stats"
)

// RunNoisy executes c on st under model m, drawing randomness from r. Each
// op is applied ideally and then, with its fault probability, its target
// bits are replaced with uniform random values. It returns the number of
// faulted ops.
func RunNoisy(c *circuit.Circuit, st *bitvec.Vector, m noise.Model, r *rng.RNG) int {
	faults := 0
	c.Each(func(_ int, k gate.Kind, targets []int) {
		k.Apply(st, targets...)
		if p := m.FaultProb(k); p > 0 && r.Bool(p) {
			randomize(st, targets, r)
			faults++
		}
	})
	return faults
}

// RunProcess executes c on st under a stateful fault process: a fresh
// Sampler decides per-op faults, so temporally correlated models (e.g.
// noise.Burst) are supported. It returns the number of faulted ops.
func RunProcess(c *circuit.Circuit, st *bitvec.Vector, s noise.Sampler, r *rng.RNG) int {
	faults := 0
	c.Each(func(_ int, k gate.Kind, targets []int) {
		k.Apply(st, targets...)
		if s.Fault(k, r) {
			randomize(st, targets, r)
			faults++
		}
	})
	return faults
}

// RunInjected executes c on st, overwriting the targets of each op listed in
// plan with the planned local value after the op applies ideally.
func RunInjected(c *circuit.Circuit, st *bitvec.Vector, plan noise.Plan) {
	c.Each(func(i int, k gate.Kind, targets []int) {
		k.Apply(st, targets...)
		if v, ok := plan[i]; ok {
			setLocal(st, targets, v)
		}
	})
}

// RunInjectedList is RunInjected without the map: ops lists the faulted op
// indices in strictly increasing order and vals the corresponding local
// values. The exhaustive enumerations (core.Target.Injected, under the
// single-fault audit and the pair walk) execute millions of planned
// injections, where a map allocation per run would dominate; this form
// allocates nothing.
// It panics if ops and vals differ in length or ops is not strictly
// increasing — those are programming errors in enumeration loops.
func RunInjectedList(c *circuit.Circuit, st *bitvec.Vector, ops []int, vals []uint64) {
	if len(ops) != len(vals) {
		panic(fmt.Sprintf("sim: RunInjectedList got %d ops but %d values", len(ops), len(vals)))
	}
	next := 0
	c.Each(func(i int, k gate.Kind, targets []int) {
		k.Apply(st, targets...)
		if next < len(ops) && ops[next] == i {
			setLocal(st, targets, vals[next])
			next++
		}
	})
	if next != len(ops) {
		panic(fmt.Sprintf("sim: RunInjectedList applied %d of %d injections (ops not strictly increasing and in range?)", next, len(ops)))
	}
}

// randomize replaces the named bits with fresh uniform random values.
func randomize(st *bitvec.Vector, targets []int, r *rng.RNG) {
	v := r.Bits(len(targets))
	setLocal(st, targets, v)
}

// setLocal writes local value v onto the target wires, targets[0] in bit 0.
func setLocal(st *bitvec.Vector, targets []int, v uint64) {
	for i, t := range targets {
		st.Set(t, v>>uint(i)&1 == 1)
	}
}

// ForEachSingleFault enumerates every possible single randomizing fault in
// c: every op index paired with every local value its fault could leave
// behind (including the value the ideal op would have produced — the random
// channel can emit that too). fn receives the op index and the fault value.
func ForEachSingleFault(c *circuit.Circuit, fn func(opIdx int, value uint64)) {
	for i := 0; i < c.Len(); i++ {
		arity := c.Op(i).Kind.Arity()
		for v := uint64(0); v < 1<<uint(arity); v++ {
			fn(i, v)
		}
	}
}

// MonteCarlo runs trials independent executions of trial across workers
// goroutines and aggregates how many returned true. It is MonteCarloCtx
// from trial 0 under a background context: the result depends only on
// (trials, seed), never on workers (<= 0 selects GOMAXPROCS). A panic
// inside trial propagates as a *TrialPanicError; use MonteCarloCtx to
// handle it as an error instead.
func MonteCarlo(trials, workers int, seed uint64, trial func(r *rng.RNG) bool) stats.Bernoulli {
	res, err := MonteCarloCtx(context.Background(), 0, trials, workers, seed, trial)
	if err != nil {
		// The context never cancels, so the only possible error is a
		// recovered trial panic. Re-raise it with its diagnostics.
		panic(err)
	}
	return res.Bernoulli
}
