package revft

import (
	"context"

	"revft/internal/adder"
	"revft/internal/bennett"
	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/code"
	"revft/internal/cooling"
	"revft/internal/core"
	"revft/internal/entropy"
	"revft/internal/gate"
	"revft/internal/irrev"
	"revft/internal/lanes"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/synth"
	"revft/internal/threshold"
	"revft/internal/vonneumann"
)

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

// GateKind identifies a reversible gate (or the Init3 reset operation).
type GateKind = gate.Kind

// The gate set of the paper. MAJ is the reversible majority gate of
// Table 1; SWAP3 combines two SWAPs into one 3-bit gate (Figure 5); Init3
// is the 3-bit initialization operation.
const (
	NOT      = gate.NOT
	CNOT     = gate.CNOT
	SWAP     = gate.SWAP
	Toffoli  = gate.Toffoli
	Fredkin  = gate.Fredkin
	MAJ      = gate.MAJ
	MAJInv   = gate.MAJInv
	SWAP3    = gate.SWAP3
	SWAP3Inv = gate.SWAP3Inv
	Init3    = gate.Init3
)

// Majority returns the majority of three bits.
func Majority(a, b, c bool) bool { return gate.Majority(a, b, c) }

// ---------------------------------------------------------------------------
// States and circuits
// ---------------------------------------------------------------------------

// State is the bit register of a simulated reversible computer.
type State = bitvec.Vector

// NewState returns an all-zero register of n bits.
func NewState(n int) *State { return bitvec.New(n) }

// StateFromUint returns an n-bit register holding the low n bits of x.
func StateFromUint(x uint64, n int) *State { return bitvec.FromUint(x, n) }

// Circuit is an ordered sequence of gate applications on fixed wires.
type Circuit = circuit.Circuit

// Op is a single gate application within a circuit.
type Op = circuit.Op

// NewCircuit returns an empty circuit on width wires.
func NewCircuit(width int) *Circuit { return circuit.New(width) }

// ---------------------------------------------------------------------------
// Noise and simulation
// ---------------------------------------------------------------------------

// NoiseModel assigns fault probabilities to gate applications.
type NoiseModel = noise.Model

// IIDNoise is the paper's independent gate-failure model.
type IIDNoise = noise.IID

// UniformNoise returns the paper's model with every operation (including
// initialization) failing with probability g.
func UniformNoise(g float64) IIDNoise { return noise.Uniform(g) }

// PerfectInitNoise returns the model where initialization is noiseless.
func PerfectInitNoise(g float64) IIDNoise { return noise.PerfectInit(g) }

// Noiseless never faults.
var Noiseless = noise.Noiseless

// Injection pins a deterministic fault for fault-injection studies.
type Injection = noise.Injection

// FaultPlan maps op indices to injected fault values.
type FaultPlan = noise.Plan

// NewFaultPlan builds a FaultPlan from injections.
func NewFaultPlan(injs ...Injection) FaultPlan { return noise.NewPlan(injs...) }

// RNG is a deterministic xoshiro256** random number generator.
type RNG = rng.RNG

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// RunNoisy executes a circuit under a noise model, returning the number of
// faulted operations.
func RunNoisy(c *Circuit, st *State, m NoiseModel, r *RNG) int {
	return sim.RunNoisy(c, st, m, r)
}

// RunInjected executes a circuit with deterministic fault injection.
func RunInjected(c *Circuit, st *State, plan FaultPlan) {
	sim.RunInjected(c, st, plan)
}

// Estimate is a Bernoulli estimate with Wilson confidence intervals.
type Estimate = stats.Bernoulli

// MonteCarlo runs trials of trial across parallel workers (0 = GOMAXPROCS),
// reproducibly seeded: the estimate does not depend on workers. A panic
// inside trial re-panics with the seed and block that reproduce it.
func MonteCarlo(trials, workers int, seed uint64, trial func(r *RNG) bool) Estimate {
	res, err := sim.MonteCarloCtx(context.Background(), 0, trials, workers, seed, trial)
	if err != nil {
		panic(err)
	}
	return res.Bernoulli
}

// ---------------------------------------------------------------------------
// Bit-sliced lane engine
// ---------------------------------------------------------------------------

// LaneBroadcast returns the word holding v in all 64 lanes.
func LaneBroadcast(v bool) uint64 { return lanes.Broadcast(v) }

// WideLaneState is a K-word lane block: 64·K trial lanes, wire-major.
type WideLaneState = lanes.WideState

// WideProgram is a circuit lowered for a K-word lane block: each op is
// one word kernel with one fault point, and fault points sharing a
// probability share one geometric sampler. K = 1 is the 64-lane engine.
type WideProgram = lanes.WideProgram

// NewWideLaneState allocates a words-wide lane block for width wires.
func NewWideLaneState(width, words int) WideLaneState { return lanes.NewWideState(width, words) }

// CompileWideLanes lowers a circuit to a WideProgram under a noise model
// for a words-wide lane block; words must be a power of two up to 1024.
func CompileWideLanes(c *Circuit, m NoiseModel, words int) *WideProgram {
	return lanes.CompileWide(c, m, words)
}

// MonteCarloWide runs trials across 64·words-lane blocks of batch, which
// writes a hit mask into its block argument (bit j of hit[k] set: lane
// 64k+j's trial observed the counted event). Worker and seeding semantics
// match MonteCarlo; every worker calls batch, concurrently when workers >
// 1. A panic inside batch, or words not 1, 2, 4 or 8, panics.
func MonteCarloWide(trials, workers int, seed uint64, words int, batch func(r *RNG, hit []uint64)) Estimate {
	res, err := sim.MonteCarloWideCtx(context.Background(), 0, trials, workers, seed, words,
		func() sim.WideBatchTrial { return batch })
	if err != nil {
		panic(err)
	}
	return res.Bernoulli
}

// ---------------------------------------------------------------------------
// Repetition code
// ---------------------------------------------------------------------------

// CodeBlockSize returns 3^level, the physical size of a level-L logical bit.
func CodeBlockSize(level int) int { return code.BlockSize(level) }

// EncodeBit writes the level-L codeword for v onto the given wires.
func EncodeBit(st *State, wires []int, v bool, level int) {
	code.EncodeInto(st, wires, v, level)
}

// DecodeBit recursively majority-decodes the level-L block on the wires.
func DecodeBit(st *State, wires []int, level int) bool {
	return code.Decode(st, wires, level)
}

// ---------------------------------------------------------------------------
// The paper's core: recovery, concatenation, modules
// ---------------------------------------------------------------------------

// Recovery returns the paper's Figure 2 error-recovery circuit.
func Recovery() *Circuit { return core.Recovery() }

// RecoveryDataWires and RecoveryOutputWires locate the codeword before and
// after recovery.
var (
	RecoveryDataWires   = core.RecoveryDataWires
	RecoveryOutputWires = core.RecoveryOutputWires
)

// Builder emits fault-tolerant circuits at a concatenation level.
type Builder = core.Builder

// NewBuilder allocates nbits logical bits at the given level.
func NewBuilder(level, nbits int) *Builder { return core.NewBuilder(level, nbits) }

// Target is §2.2's extended rectangle (encode, run under noise, decode,
// compare with the logical circuit) that gadgets, cycles and modules run
// their Monte Carlo estimates through.
type Target = core.Target

// TrialInput selects the logical inputs of a target's trials.
type TrialInput = core.Input

// UniformInput draws a fresh uniformly random logical input per trial.
var UniformInput = core.Uniform

// FixedInput holds every trial at the packed logical input in.
func FixedInput(in uint64) TrialInput { return core.Fixed(in) }

// TrialRun is the execution step of a scalar trial.
type TrialRun = core.Run

// NoisyRun runs a trial under the paper's randomizing fault channel m.
func NoisyRun(m NoiseModel) TrialRun { return core.Noisy(m) }

// ProcessRun runs a trial under a fresh sampler of the fault process p.
func ProcessRun(p FaultProcess) TrialRun { return core.Process(p) }

// PlainTarget wraps a circuit as its own unencoded target.
func PlainTarget(name string, c *Circuit) Target { return core.Plain(name, c) }

// Gadget is one fault-tolerant logical gate packaged for threshold
// experiments.
type Gadget = core.Gadget

// NewGadget builds the FT implementation of k at a concatenation level.
func NewGadget(k GateKind, level int) *Gadget { return core.NewGadget(k, level) }

// Module is a logical circuit compiled to its FT implementation.
type Module = core.Module

// CompileModule expands a logical circuit at the given level.
func CompileModule(logical *Circuit, level int) *Module {
	return core.CompileModule(logical, level)
}

// GateBlowup returns Γ_L, the per-gate blowup of the construction (E = 8).
func GateBlowup(level int) int { return core.GateBlowup(level) }

// SizeBlowup returns S_L = 9^L, the per-bit blowup.
func SizeBlowup(level int) int { return core.SizeBlowup(level) }

// ---------------------------------------------------------------------------
// Near-neighbor architectures (§3)
// ---------------------------------------------------------------------------

// Layout assigns wires to lattice coordinates.
type Layout = lattice.Layout

// Line and Grid are the 1D and 2D layouts.
type (
	Line = lattice.Line
	Grid = lattice.Grid
)

// CheckLocal verifies a circuit against a layout's near-neighbor rule.
func CheckLocal(c *Circuit, l Layout, exempt func(GateKind) bool) error {
	return lattice.CheckLocal(c, l, exempt)
}

// InitExempt exempts the 3-bit initialization from locality checking.
func InitExempt(k GateKind) bool { return lattice.InitExempt(k) }

// Recovery1D returns the Figure 7 nearest-neighbor recovery circuit.
func Recovery1D() *Circuit { return lattice.Recovery1D() }

// Recovery2D returns the recovery circuit placed on the Figure 4 patch.
func Recovery2D() *Circuit { return lattice.Recovery2D() }

// Cycle is a complete local logical-gate cycle.
type Cycle = lattice.Cycle

// NewCycle1D builds the §3.2 one-dimensional logical-gate cycle.
func NewCycle1D(k GateKind) *Cycle { return lattice.NewCycle1D(k) }

// NewCycle2D builds the §3.1 two-dimensional logical-gate cycle.
func NewCycle2D(k GateKind) *Cycle { return lattice.NewCycle2D(k) }

// ---------------------------------------------------------------------------
// Analytic model (§2.2, §2.3, §3.3)
// ---------------------------------------------------------------------------

// Threshold returns ρ = 1/(3·C(G,2)). It panics if g < 2; use
// ThresholdErr when g comes from untrusted input.
func Threshold(g int) float64 { return threshold.MustThreshold(g) }

// ThresholdErr is Threshold returning an error instead of panicking on
// g < 2.
func ThresholdErr(g int) (float64, error) { return threshold.Threshold(g) }

// Architecture gate counts G, as published.
const (
	GNonLocalInit = threshold.GNonLocalInit
	GNonLocal     = threshold.GNonLocal
	G2DInit       = threshold.G2DInit
	G2D           = threshold.G2D
	G1DInit       = threshold.G1DInit
	G1D           = threshold.G1D
)

// LevelRate returns Equation 2's bound ρ·(g/ρ)^(2^L).
func LevelRate(g float64, gcount, level int) float64 {
	return threshold.LevelRate(g, gcount, level)
}

// RequiredLevels returns the smallest depth satisfying Equation 3.
func RequiredLevels(t, g float64, gcount int) (int, error) {
	return threshold.RequiredLevels(t, g, gcount)
}

// HybridThreshold returns ρ(k) = ρ₂·(ρ₁/ρ₂)^(1/2^k) (§3.3, Table 2).
func HybridThreshold(k int, rho1, rho2 float64) float64 {
	return threshold.Hybrid(k, rho1, rho2)
}

// ---------------------------------------------------------------------------
// Entropy (§4)
// ---------------------------------------------------------------------------

// BinaryEntropy returns H(p) in bits.
func BinaryEntropy(p float64) float64 { return entropy.BinaryEntropy(p) }

// EntropyUpperBound returns the §4 upper bound G̃^L·κ·√g.
func EntropyUpperBound(g, gTilde float64, level int) float64 {
	return entropy.UpperBound(g, gTilde, level)
}

// EntropyLowerBound returns the §4 lower bound (3E)^(L−1)·g.
func EntropyLowerBound(g float64, e, level int) float64 {
	return entropy.LowerBound(g, e, level)
}

// MaxEntropyLevels returns the depth limit log(1/g)/log(3E)+1 for O(1)
// entropy per gate.
func MaxEntropyLevels(g float64, e int) float64 { return entropy.MaxLevels(g, e) }

// LandauerHeat converts entropy (bits) to joules at temperature tempK.
func LandauerHeat(bits, tempK float64) float64 { return entropy.LandauerHeat(bits, tempK) }

// MeasuredRecoveryEntropy measures, by simulation, the ancilla entropy one
// noisy recovery cycle must export.
func MeasuredRecoveryEntropy(g float64, trials int, seed uint64) float64 {
	return entropy.MeasuredRecoveryEntropy(g, trials, seed)
}

// ---------------------------------------------------------------------------
// Applications and baselines
// ---------------------------------------------------------------------------

// AdderLayout describes the wires of a reversible ripple-carry adder.
type AdderLayout = adder.Layout

// NewAdder builds the n-bit Cuccaro adder (the paper's reference [4]):
// (a, b) → (a, a+b).
func NewAdder(n int) (*Circuit, AdderLayout) { return adder.New(n) }

// NANDMultiplexer is a von Neumann NAND-multiplexing unit (the paper's
// irreversible baseline, reference [18]).
type NANDMultiplexer = vonneumann.Unit

// MultiplexingThreshold returns the baseline's bistability threshold.
func MultiplexingThreshold() float64 { return vonneumann.Threshold() }

// ---------------------------------------------------------------------------
// Correlated noise and fault processes
// ---------------------------------------------------------------------------

// FaultProcess creates stateful per-execution fault samplers (supports
// temporally correlated models).
type FaultProcess = noise.Process

// FaultSampler decides per-op faults within one execution.
type FaultSampler = noise.Sampler

// BurstNoise is the temporally correlated fault model: each fault triggers
// a follow-on fault at the next op with probability Corr.
type BurstNoise = noise.Burst

// RunProcess executes a circuit under a stateful fault process.
func RunProcess(c *Circuit, st *State, s FaultSampler, r *RNG) int {
	return sim.RunProcess(c, st, s, r)
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

// Memory is one logical bit held through repeated recovery cycles.
type Memory = core.Memory

// NewMemory builds the fault-tolerant storage circuit: cycles recovery
// rounds at the given concatenation level.
func NewMemory(level, cycles int) *Memory { return core.NewMemory(level, cycles) }

// ---------------------------------------------------------------------------
// Exact (non-relaxed) threshold analysis
// ---------------------------------------------------------------------------

// ExactLogicalRate returns 1−(1−P_bit)³ with the exact binomial P_bit —
// the tighter version of Equation 1.
func ExactLogicalRate(g float64, gcount int) float64 {
	return threshold.ExactLogicalRate(g, gcount)
}

// ExactThreshold returns the fixed point of the exact one-level recursion —
// the improved threshold the paper alludes to.
func ExactThreshold(gcount int) float64 { return threshold.ExactThreshold(gcount) }

// ---------------------------------------------------------------------------
// Bennett compilation of irreversible logic (paper ref. [2])
// ---------------------------------------------------------------------------

// Irreversible gate types for netlists.
type IrrevGate = bennett.GateType

// The irreversible gate set for Bennett compilation.
const (
	GateAND  = bennett.AND
	GateOR   = bennett.OR
	GateXOR  = bennett.XOR
	GateNAND = bennett.NAND
	GateNOR  = bennett.NOR
	GateNOT  = bennett.NOT
)

// Netlist is an irreversible combinational circuit.
type Netlist = bennett.Net

// NetlistGate is one gate of a Netlist.
type NetlistGate = bennett.NetGate

// CompiledNetlist is the reversible (compute-copy-uncompute) form.
type CompiledNetlist = bennett.Compiled

// CompileNetlist performs Bennett's garbage-free reversible compilation.
func CompileNetlist(n *Netlist) (*CompiledNetlist, error) { return bennett.Compile(n) }

// FullAdderNetlist returns a 1-bit full adder netlist.
func FullAdderNetlist() *Netlist { return bennett.FullAdderNet() }

// RippleAdderNetlist returns an n-bit irreversible ripple-carry adder.
func RippleAdderNetlist(n int) *Netlist { return bennett.RippleAdderNet(n) }

// ---------------------------------------------------------------------------
// NAND simulation entropy (paper footnote 4)
// ---------------------------------------------------------------------------

// NANDConstruction is a reversible simulation of the irreversible NAND.
type NANDConstruction = irrev.NANDConstruction

// NANDViaToffoli returns the naive 2-bit-entropy construction.
func NANDViaToffoli() *NANDConstruction { return irrev.NANDViaToffoli() }

// NANDViaMAJInv returns the paper's optimal 3/2-bit construction.
func NANDViaMAJInv() *NANDConstruction { return irrev.NANDViaMAJInv() }

// OptimalNANDEntropy is the 3/2-bit optimum of footnote 4.
const OptimalNANDEntropy = irrev.OptimalNANDEntropy

// ---------------------------------------------------------------------------
// Synthesis
// ---------------------------------------------------------------------------

// SynthTarget is a permutation of the eight 3-bit local states.
type SynthTarget = synth.Target

// SynthPlacement is a gate placed on specific wires for synthesis.
type SynthPlacement = synth.Placement

// SynthPlacements enumerates distinct placements of gate kinds on 3 wires.
func SynthPlacements(kinds ...GateKind) []SynthPlacement { return synth.Placements(kinds...) }

// SynthFromKind returns the target implemented by a 3-bit gate.
func SynthFromKind(k GateKind) SynthTarget { return synth.FromKind(k) }

// Synthesize returns a shortest circuit realizing the target over the gate
// set.
func Synthesize(target SynthTarget, gateSet []SynthPlacement) (*Circuit, error) {
	return synth.Synthesize(target, gateSet)
}

// NewCycle2DParallel builds the parallel-interleave variant of the 2D cycle
// (the §3.1 ablation; not strictly single-fault tolerant).
func NewCycle2DParallel(k GateKind) *Cycle { return lattice.NewCycle2DParallel(k) }

// ---------------------------------------------------------------------------
// Algorithmic cooling (paper refs. [3, 5, 15])
// ---------------------------------------------------------------------------

// BCS returns the basic compression subroutine on wires (a, b, c): one CNOT
// and one Fredkin gate that boost wire a's polarization by (3δ−δ³)/2.
func BCS(a, b, c int) *Circuit { return cooling.BCS(a, b, c) }

// CoolingTree is a recursive cooling circuit over 3^depth bits.
type CoolingTree = cooling.Tree

// NewCoolingTree builds the cooling circuit for 3^depth bits; bit 0 comes
// out coldest.
func NewCoolingTree(depth int) *CoolingTree { return cooling.NewTree(depth) }

// CoolingBoost returns the one-round polarization map (3δ−δ³)/2.
func CoolingBoost(delta float64) float64 { return cooling.Boost(delta) }

// ResetBudget returns §4's accounting: refreshing n ancillas of per-bit
// entropy h needs only ≈ n·h fresh zero bits under reversible cooling.
func ResetBudget(n int, h float64) float64 { return cooling.ResetBudget(n, h) }

// ---------------------------------------------------------------------------
// Circuit serialization
// ---------------------------------------------------------------------------

// ParseCircuit reads a circuit in the line-oriented format produced by
// Circuit.Marshal.
func ParseCircuit(s string) (*Circuit, error) { return circuit.Parse(s) }

// GateFromName resolves a gate's display name (ASCII aliases MAJ-1 and
// SWAP3-1 accepted).
func GateFromName(name string) (GateKind, bool) { return gate.FromName(name) }
