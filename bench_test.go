package revft_test

// One benchmark per table and figure of the paper (see DESIGN.md §4 for the
// experiment index). Each benchmark exercises the code path that regenerates
// the corresponding artifact; `go test -bench=. -benchmem` at the repo root
// reproduces the full sweep.

import (
	"context"
	"fmt"
	"testing"

	"revft"
	"revft/internal/entropy"
	"revft/internal/exp"
	"revft/internal/gate"
	"revft/internal/lattice"
	"revft/internal/telemetry"
	"revft/internal/threshold"
	"revft/internal/vonneumann"
)

// BenchmarkTable1MAJTruthTable evaluates the MAJ gate over all eight local
// states (paper Table 1).
func BenchmarkTable1MAJTruthTable(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		for in := uint64(0); in < 8; in++ {
			sink ^= gate.MAJ.Eval(in)
		}
	}
	_ = sink
}

// BenchmarkFigure1MAJDecomposition runs the CNOT·CNOT·Toffoli construction
// of MAJ (paper Figure 1).
func BenchmarkFigure1MAJDecomposition(b *testing.B) {
	c := revft.NewCircuit(3).CNOT(0, 1).CNOT(0, 2).Toffoli(1, 2, 0)
	st := revft.NewState(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(st)
	}
}

// BenchmarkFigure2Recovery executes one noisy error-recovery cycle (paper
// Figure 2) at g = 10⁻³.
func BenchmarkFigure2Recovery(b *testing.B) {
	c := revft.Recovery()
	st := revft.NewState(c.Width())
	m := revft.UniformNoise(1e-3)
	r := revft.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		revft.RunNoisy(c, st, m, r)
	}
}

// BenchmarkScalarRecovery and BenchmarkLanesRecovery measure trial
// throughput of the scalar and the 64-lane (words = 1) engines on the
// Figure 2 recovery gadget (level-1 MAJ plus recovery) at g = 10⁻³,
// single worker, through the same harness. Per-op time is per trial, so
// ns/op here divided by ns/op there is the engines' throughput ratio.
//
// The harness keeps each worker's hit/done counts in locals and publishes
// them once, at worker exit, into two shared atomic totals. The earlier
// design gave each worker a slot in one shared counts slice; adjacent
// slots share a cache line, so per-trial writes from different workers
// invalidated each other's lines (false sharing) and multi-worker scaling
// fell visibly short of linear on the scalar engine, whose per-trial work
// is small. BenchmarkHarnessScaling shows the scaling across worker
// counts.
func BenchmarkScalarRecovery(b *testing.B) {
	g := revft.NewGadget(revft.MAJ, 1)
	m := revft.UniformNoise(1e-3)
	b.ResetTimer()
	if _, err := g.Estimate(context.Background(), revft.UniformInput, revft.NoisyRun(m), 0, 0, b.N, 1, 1); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLanesRecovery(b *testing.B) {
	g := revft.NewGadget(revft.MAJ, 1)
	m := revft.UniformNoise(1e-3)
	b.ResetTimer()
	if _, err := g.LogicalErrorRateWideCtx(context.Background(), m, 1, b.N, 1, 1); err != nil {
		b.Fatal(err)
	}
}

// lanesWalkAllG is a g just above the threshold sweep's ρ/2 where the
// level-2 gadget's expected share of lanes holding three live faults,
// 0.56, is too high to compact even with its certified d = 3: every batch
// walks every lane, the engine path the benchmarks below time. (At ρ/2
// that share is 0.26, and the batches compact.)
const lanesWalkAllG = 0.005

// TestLanesWalkAllG: at lanesWalkAllG the level-2 gadget's lane batches
// walk every lane slot, as the benchmarks below claim.
func TestLanesWalkAllG(t *testing.T) {
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	g := revft.NewGadget(revft.MAJ, 2)
	if _, err := g.LogicalErrorRateWideCtx(ctx, revft.UniformNoise(lanesWalkAllG), 8, 4*512, 1, 1); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	if c["lanes.slots"] == 0 || c["lanes.walked"] != c["lanes.slots"] {
		t.Errorf("g = %g: walked %d of %d lane slots, want all", lanesWalkAllG, c["lanes.walked"], c["lanes.slots"])
	}
}

// BenchmarkLanesBare and BenchmarkLanesInstrumented bound the telemetry
// overhead on the hottest path: the same 64-lane run of the level-2
// gadget at lanesWalkAllG, where every lane is walked, with no registry in the
// context versus the full instrumentation (global/per-worker/lanes trial
// counters, sampled batch latency, the total fault counter). The budget
// is 2%: CI compares the two and warns when instrumented ns/op exceeds
// bare by more than that. The design that keeps it there: harness
// counters accumulate in worker locals and flush every 16 batches, batch
// latency is timed 1 batch in 16, and the fault counter takes one add per
// batch that had a fault event, none for a fault-free batch. Each gadget
// is built and audited before the timer starts.
func BenchmarkLanesBare(b *testing.B) {
	benchLanesWalkAll(b, context.Background(), 1)
}

func BenchmarkLanesInstrumented(b *testing.B) {
	benchLanesWalkAll(b, telemetry.NewContext(context.Background(), telemetry.New()), 1)
}

// BenchmarkLanes256Bare and BenchmarkLanes512Bare measure the same
// engine on 4- and 8-word lane blocks, on the same gadget and noise as
// BenchmarkLanesBare. ns/op is still per trial, so BenchmarkLanesBare
// ns/op divided by these is the widening speedup; CI's bench smoke step
// prints the ratio.
func BenchmarkLanes256Bare(b *testing.B) {
	benchLanesWalkAll(b, context.Background(), 4)
}

func BenchmarkLanes512Bare(b *testing.B) {
	benchLanesWalkAll(b, context.Background(), 8)
}

// benchLanesWalkAll times b.N trials of the level-2 gadget at
// lanesWalkAllG on words-word lane blocks, one worker.
func benchLanesWalkAll(b *testing.B, ctx context.Context, words int) {
	g := revft.NewGadget(revft.MAJ, 2)
	m := revft.UniformNoise(lanesWalkAllG)
	if _, err := g.LogicalErrorRateWideCtx(ctx, m, words, 512, 1, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := g.LogicalErrorRateWideCtx(ctx, m, words, b.N, 1, 1); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLanes512Levels measures lanes512 Estimate ns/trial (ns/op is
// per trial) on the level-1 and level-2 MAJ gadgets at the threshold
// sweep's three g (ρ/10, ρ/10·√5 and ρ/2), one worker. Each gadget is
// built and audited before the timer starts, as a sweep's later points
// find it.
func BenchmarkLanes512Levels(b *testing.B) {
	for _, level := range []int{1, 2} {
		g := revft.NewGadget(revft.MAJ, level)
		for _, p := range []float64{0.000606, 0.001355, 0.00303} {
			m := revft.UniformNoise(p)
			b.Run(fmt.Sprintf("L%d/g=%g", level, p), func(b *testing.B) {
				if _, err := g.LogicalErrorRateWideCtx(context.Background(), m, 8, 512, 1, 1); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				if _, err := g.LogicalErrorRateWideCtx(context.Background(), m, 8, b.N, 1, 1); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkHarnessScaling runs the scalar engine on the recovery gadget
// across worker counts; ns/op is still per trial, so ideal scaling halves
// it per doubling. This is the benchmark that regressed under the old
// false-sharing counter layout.
func BenchmarkHarnessScaling(b *testing.B) {
	g := revft.NewGadget(revft.MAJ, 1)
	m := revft.UniformNoise(1e-3)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			if _, err := g.Estimate(context.Background(), revft.UniformInput, revft.NoisyRun(m), 0, 0, b.N, w, 1); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFigure3ConcatenatedGate runs one noisy trial of the level-L
// fault-tolerant MAJ gate (paper Figure 3).
func BenchmarkFigure3ConcatenatedGate(b *testing.B) {
	for _, level := range []int{1, 2} {
		b.Run(map[int]string{1: "L1", 2: "L2"}[level], func(b *testing.B) {
			g := revft.NewGadget(revft.MAJ, level)
			trial := g.Trial(revft.UniformInput, revft.NoisyRun(revft.UniformNoise(1e-3)))
			r := revft.NewRNG(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial(r)
			}
		})
	}
}

// BenchmarkBlowupGeneration builds the level-2 fault-tolerant gadget —
// Γ₂ = 729 physical ops on 243 bits (paper §2.3).
func BenchmarkBlowupGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		revft.NewGadget(revft.MAJ, 2)
	}
}

// BenchmarkFigure4Interleave2D runs one noisy 2D logical-gate cycle (paper
// Figure 4 / §3.1).
func BenchmarkFigure4Interleave2D(b *testing.B) {
	c := revft.NewCycle2D(revft.MAJ)
	st := revft.NewState(c.Circuit.Width())
	m := revft.UniformNoise(1e-3)
	r := revft.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		revft.RunNoisy(c.Circuit, st, m, r)
	}
}

// BenchmarkFigure5SWAP3 applies the SWAP3 gate (paper Figure 5).
func BenchmarkFigure5SWAP3(b *testing.B) {
	st := revft.NewState(3)
	for i := 0; i < b.N; i++ {
		gate.SWAP3.Apply(st, 0, 1, 2)
	}
}

// BenchmarkFigure6Interleave1D generates the 45-SWAP three-codeword
// interleave schedule (paper Figure 6 / §3.2).
func BenchmarkFigure6Interleave1D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lattice.NewInterleave1D()
	}
}

// BenchmarkFigure7Recovery1D executes one noisy nearest-neighbor recovery
// (paper Figure 7).
func BenchmarkFigure7Recovery1D(b *testing.B) {
	c := revft.Recovery1D()
	st := revft.NewState(c.Width())
	m := revft.UniformNoise(1e-3)
	r := revft.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		revft.RunNoisy(c, st, m, r)
	}
}

// BenchmarkTable2Hybrid computes the hybrid 2D/1D threshold table (paper
// Table 2).
func BenchmarkTable2Hybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		threshold.Table2()
	}
}

// BenchmarkEntropyBounds evaluates the §4 entropy bounds across a g sweep.
func BenchmarkEntropyBounds(b *testing.B) {
	gs := []float64{1e-6, 1e-4, 1e-2}
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			for l := 1; l <= 3; l++ {
				sink += entropy.LowerBound(g, 8, l) + entropy.UpperBound(g, 27, l)
			}
		}
	}
	_ = sink
}

// BenchmarkEntropyMeasured measures ancilla entropy over a small batch of
// noisy recovery cycles (paper §4, measured variant).
func BenchmarkEntropyMeasured(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entropy.MeasuredRecoveryEntropy(1e-2, 500, uint64(i))
	}
}

// BenchmarkVonNeumannMultiplexing runs one multiplexed NAND on bundles of
// 100 wires (the paper's irreversible baseline, reference [18]).
func BenchmarkVonNeumannMultiplexing(b *testing.B) {
	u := vonneumann.Unit{N: 100, Eps: 0.01}
	r := revft.NewRNG(1)
	x := vonneumann.NewBundle(u.N, true)
	y := vonneumann.NewBundle(u.N, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.NAND(x, y, r)
	}
}

// BenchmarkUnprotectedModule runs the bare 4-bit adder under noise — the
// 1−(1−g)^T reference.
func BenchmarkUnprotectedModule(b *testing.B) {
	c, _ := revft.NewAdder(4)
	st := revft.NewState(c.Width())
	m := revft.UniformNoise(1e-3)
	r := revft.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		revft.RunNoisy(c, st, m, r)
	}
}

// BenchmarkFTAdderModule runs the level-1 fault-tolerant 4-bit adder module
// under noise (the §2.3 trade in action).
func BenchmarkFTAdderModule(b *testing.B) {
	c, _ := revft.NewAdder(4)
	mod := revft.CompileModule(c, 1).Target()
	trial := mod.Trial(revft.FixedInput(0), revft.NoisyRun(revft.UniformNoise(1e-3)))
	r := revft.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial(r)
	}
}

// BenchmarkAnalyticTables regenerates every analytic experiment table.
func BenchmarkAnalyticTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AllAnalytic()
	}
}

// BenchmarkStorageCycle runs one noisy recovery cycle of fault-tolerant
// storage (the §2 storage primitive).
func BenchmarkStorageCycle(b *testing.B) {
	trial := revft.NewMemory(1, 1).Target().Trial(revft.FixedInput(1), revft.NoisyRun(revft.UniformNoise(1e-3)))
	r := revft.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial(r)
	}
}

// BenchmarkBurstNoiseGadget runs a level-1 trial under the correlated
// (burst) fault process — the §2 error-model ablation.
func BenchmarkBurstNoiseGadget(b *testing.B) {
	g := revft.NewGadget(revft.MAJ, 1)
	p := revft.BurstNoise{Gate: 1e-3, Init: 1e-3, Corr: 0.5}
	trial := g.Trial(revft.UniformInput, revft.ProcessRun(p))
	r := revft.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial(r)
	}
}

// BenchmarkBennettCompile compiles an 8-bit irreversible adder netlist into
// its garbage-free reversible form (paper ref. [2]).
func BenchmarkBennettCompile(b *testing.B) {
	net := revft.RippleAdderNetlist(8)
	for i := 0; i < b.N; i++ {
		if _, err := revft.CompileNetlist(net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeFigure1 proves Figure 1's optimality by BFS.
func BenchmarkSynthesizeFigure1(b *testing.B) {
	set := revft.SynthPlacements(revft.CNOT, revft.Toffoli)
	target := revft.SynthFromKind(revft.MAJ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := revft.Synthesize(target, set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNANDEntropyFootnote4 computes the exact garbage entropy of both
// NAND constructions (paper footnote 4).
func BenchmarkNANDEntropyFootnote4(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += revft.NANDViaMAJInv().GarbageEntropy()
		sink += revft.NANDViaToffoli().GarbageEntropy()
	}
	_ = sink
}

// BenchmarkCycle2DParallel runs the parallel-interleave 2D cycle (the §3.1
// ablation variant).
func BenchmarkCycle2DParallel(b *testing.B) {
	c := revft.NewCycle2DParallel(revft.MAJ)
	st := revft.NewState(c.Circuit.Width())
	m := revft.UniformNoise(1e-3)
	r := revft.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		revft.RunNoisy(c.Circuit, st, m, r)
	}
}

// BenchmarkExactThreshold bisects the exact-recursion threshold.
func BenchmarkExactThreshold(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += revft.ExactThreshold(revft.GNonLocal)
	}
	_ = sink
}

// BenchmarkCoolingTree runs a depth-3 algorithmic-cooling tree (paper refs.
// [3, 5, 15]).
func BenchmarkCoolingTree(b *testing.B) {
	tr := revft.NewCoolingTree(3)
	st := revft.NewState(tr.Circuit.Width())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Circuit.Run(st)
	}
}

// BenchmarkCircuitSerialization round-trips the recovery circuit through
// the text format.
func BenchmarkCircuitSerialization(b *testing.B) {
	c := revft.Recovery()
	for i := 0; i < b.N; i++ {
		if _, err := revft.ParseCircuit(c.Marshal()); err != nil {
			b.Fatal(err)
		}
	}
}
