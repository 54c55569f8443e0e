// Package lanes implements the bit-sliced execution engine for reversible
// circuits under the paper's randomizing fault channel.
//
// Where package sim advances one Monte Carlo trial at a time — a table
// lookup and a per-op uniform draw per gate — this engine packs 64·K
// independent trials into K machine words per wire: bit j of word k of
// wire w is wire w's value in trial lane 64k+j. Every gate in the set
// compiles to one short branch-free boolean word kernel with one fault
// point (MAJ is one kernel, not Figure 1's three CNOT/Toffoli steps;
// Init3 clears its three wires), so one kernel application advances all
// 64·K trials at once. The shipped engines are K = 1 ("lanes", 64 lanes), K = 4
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
// its replacement bits. Run takes each batch in two passes: it draws the
// batch's faults as a schedule of (fault point, lane, bits) events, then
// walks the ops, running every op before the next event as one kernel.
//
// A caller that decodes only some wires names them to CompileWideFor,
// and the ops whose results reach none of them are not run: the faults
// on their points are still drawn and counted but applied nowhere, so
// results on the named wires are bit-identical to the full program's
// (Burgholzer, Wille and Kueng call such faults unobservable at the
// outputs).
//
// Randomness comes from the same per-block xoshiro256** streams as the
// scalar harness (sim seeds trial block b from the estimate seed and b),
// so a fixed (seed, K) reproduces results exactly at any worker count.
package lanes

import (
	"revft/internal/circuit"
	"revft/internal/noise"
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

// Compile is CompileWide(c, m, 1), the 64-lane program. It is kept
// only for the benchmark module, whose perfbench/layers.go calls it.
func Compile(c *circuit.Circuit, m noise.Model) *WideProgram { return CompileWide(c, m, 1) }

// NewState is NewWideState(width, 1), the 64-lane state. It is kept
// only for the benchmark module, whose perfbench/layers.go calls it.
func NewState(width int) WideState { return NewWideState(width, 1) }
