// Package lanes implements the bit-sliced execution engine for reversible
// circuits under the paper's randomizing fault channel.
//
// Where package sim advances one Monte Carlo trial at a time — a table
// lookup and a per-op uniform draw per gate — this engine packs 64·K
// independent trials into K machine words per wire: bit j of word k of
// wire w is wire w's value in trial lane 64k+j. Every gate in the set
// compiles to a short branch-free boolean word kernel (MAJ, per Figure 1,
// is two CNOT word-ops followed by a Toffoli word-op; Init3 clears its
// three wires), so one kernel application advances all 64·K trials at
// once. The shipped engines are K = 1 ("lanes", 64 lanes), K = 4
// ("lanes256") and K = 8 ("lanes512"); see wide.go for the compiler.
//
// Faults keep the exact semantics of sim.RunNoisy, vectorized: after each
// op every lane independently faults with the op's probability, and a
// faulting lane's bits on the op's target wires are replaced with uniform
// random bits. Faulting lanes are found by geometric skips, so for the
// small fault probabilities the experiments sweep (g ~ 1e-4..3e-2) the
// engine spends randomness only where faults actually land: each fault
// event costs one skip, floor(E·λ⁻¹) with E from rng's exponential
// ziggurat and λ = -log1p(-p) fixed at compile time, and one word for
// its replacement bits.
//
// Randomness comes from the same per-block xoshiro256** streams as the
// scalar harness (sim seeds trial block b from the estimate seed and b),
// so a fixed (seed, K) reproduces results exactly at any worker count.
package lanes

import (
	"revft/internal/circuit"
	"revft/internal/noise"
	"revft/internal/telemetry"
)

// Broadcast returns the word holding v in all 64 lanes.
func Broadcast(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// Majority returns the lane-wise majority of three words.
func Majority(a, b, c uint64) uint64 {
	return a&b | b&c | a&c
}

func isPowerOfThree(n int) bool {
	if n < 1 {
		return false
	}
	for n%3 == 0 {
		n /= 3
	}
	return n == 1
}

// Instr carries the optional fault-injection instrumentation for
// WideProgram.RunInstr. Faults accumulates total (op, lane) fault events;
// OpFaults tallies them by gate location (slot i = source op i, labelled
// by circuit.OpLabels). Either field may be nil.
//
// The counts are per lane SLOT, not per counted trial: the engine always
// simulates every lane of a block, so when a harness discards excess
// lanes of a partial final block (sim.MonteCarloWideCtx masks them out of
// the hit count), faults that fired in those discarded slots are still
// tallied here. Per-trial fault rates must therefore be normalized by the
// harness's simulated-slot count ("lanes.slots" in the sim telemetry),
// never by its counted-trial count ("lanes.trials"); the two differ
// whenever trials is not a multiple of the block's lane count.
//
// The counters are touched only when a fault event actually occurs, so at
// the small fault probabilities the experiments sweep the expected cost is
// a few atomic adds per block — the same place the engine already pays
// for fresh randomness — and the no-fault fast path is unchanged.
type Instr struct {
	Faults   *telemetry.Counter
	OpFaults *telemetry.CounterVec
}

// Compile is CompileWide(c, m, 1), the 64-lane program. It is kept
// only for the benchmark module, whose perfbench/layers.go calls it.
func Compile(c *circuit.Circuit, m noise.Model) *WideProgram { return CompileWide(c, m, 1) }

// NewState is NewWideState(width, 1), the 64-lane state. It is kept
// only for the benchmark module, whose perfbench/layers.go calls it.
func NewState(width int) WideState { return NewWideState(width, 1) }
