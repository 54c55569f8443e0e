package revft_test

// Facade tests for the extended API: correlated noise, storage, exact
// thresholds, Bennett compilation, NAND entropy, synthesis, and the
// parallel-2D cycle.

import (
	"context"
	"math"
	"testing"

	"revft"
)

func TestLanesThroughFacade(t *testing.T) {
	// Compile the Figure 1 decomposition of MAJ for the 64-lane engine
	// and check it noiselessly matches the MAJ table in every lane.
	c := revft.NewCircuit(3).CNOT(0, 1).CNOT(0, 2).Toffoli(1, 2, 0)
	prog := revft.CompileWideLanes(c, revft.Noiseless, 1)
	st := revft.NewWideLaneState(3, 1)
	for j := uint64(0); j < 8; j++ {
		for w := 0; w < 3; w++ {
			st.W[w] |= j >> uint(w) & 1 << uint(j)
		}
	}
	prog.Run(st, revft.NewRNG(1))
	for j := uint64(0); j < 8; j++ {
		var got uint64
		for w := 0; w < 3; w++ {
			got |= st.W[w] >> uint(j) & 1 << uint(w)
		}
		if want := revft.MAJ.Eval(j); got != want {
			t.Fatalf("lane %d: Figure 1 program gave %03b, MAJ table %03b", j, got, want)
		}
	}

	// MonteCarloWide through the facade: count-all mask, exact trials.
	est := revft.MonteCarloWide(100, 4, 1, 1, func(r *revft.RNG, hit []uint64) {
		hit[0] = revft.LaneBroadcast(true)
	})
	if est.Trials != 100 || est.Successes != 100 {
		t.Fatalf("MonteCarloWide gave %v", est)
	}

	// Block coder: a level-1 block survives one corrupted wire.
	cw := revft.NewWideLaneState(3, 1)
	vals := []uint64{revft.NewRNG(2).Uint64()}
	cw.EncodeBlock([]int{0, 1, 2}, vals)
	cw.W[1] = ^cw.W[1]
	got := make([]uint64, 1)
	if cw.DecodeBlock([]int{0, 1, 2}, got); got[0] != vals[0] {
		t.Fatalf("lane decode = %x, want %x", got[0], vals[0])
	}

	// The gadget estimator: below threshold the level-1 logical rate must
	// beat the physical rate.
	g := revft.NewGadget(revft.MAJ, 1)
	lane, err := g.LogicalErrorRateWideCtx(context.Background(), revft.UniformNoise(2e-3), 1, 50000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := lane.Wilson(1.96); hi >= 2e-3 {
		t.Fatalf("lanes level-1 rate %v not below g", lane)
	}
}

func TestBurstNoiseThroughFacade(t *testing.T) {
	b := revft.BurstNoise{Gate: 0.01, Corr: 0.5}
	if m := b.Marginal(); m <= 0.01 {
		t.Fatalf("burst marginal %v not above spontaneous rate", m)
	}
	c := revft.Recovery()
	st := revft.NewState(c.Width())
	r := revft.NewRNG(1)
	faults := revft.RunProcess(c, st, b.NewSampler(), r)
	if faults < 0 {
		t.Fatal("negative fault count")
	}
	// Gadget path.
	g := revft.NewGadget(revft.MAJ, 1)
	est, err := g.Estimate(context.Background(), revft.UniformInput, revft.ProcessRun(b), 0, 0, 5000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials != 5000 {
		t.Fatal("process-based estimate did not run")
	}
}

func TestMemoryThroughFacade(t *testing.T) {
	m := revft.NewMemory(1, 4)
	st := revft.NewState(m.Circuit.Width())
	revft.EncodeBit(st, m.In, true, 1)
	m.Circuit.Run(st)
	if !revft.DecodeBit(st, m.Out, 1) {
		t.Fatal("memory lost the stored bit")
	}
}

func TestExactThresholdThroughFacade(t *testing.T) {
	rho := revft.Threshold(revft.GNonLocal)
	exact := revft.ExactThreshold(revft.GNonLocal)
	if exact <= rho {
		t.Fatalf("exact threshold %v not above ρ %v", exact, rho)
	}
	if revft.ExactLogicalRate(rho/2, revft.GNonLocal) >= rho/2 {
		t.Fatal("exact rate does not contract below threshold")
	}
}

func TestBennettThroughFacade(t *testing.T) {
	net := revft.FullAdderNetlist()
	cp, err := revft.CompileNetlist(net)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 1 + 1 = 11b.
	st := revft.NewState(cp.Circuit.Width())
	for _, w := range cp.InputWires {
		st.Set(w, true)
	}
	cp.Circuit.Run(st)
	if !st.Get(cp.OutputWires[0]) || !st.Get(cp.OutputWires[1]) {
		t.Fatal("full adder: 1+1+1 != 3")
	}
	// Custom netlist through the facade types.
	custom := &revft.Netlist{
		Inputs:  2,
		Gates:   []revft.NetlistGate{{Type: revft.GateNAND, A: 0, B: 1}},
		Outputs: []int{2},
	}
	if _, err := revft.CompileNetlist(custom); err != nil {
		t.Fatal(err)
	}
}

func TestNANDEntropyThroughFacade(t *testing.T) {
	if h := revft.NANDViaMAJInv().GarbageEntropy(); math.Abs(h-revft.OptimalNANDEntropy) > 1e-12 {
		t.Fatalf("MAJ⁻¹ entropy %v", h)
	}
	if h := revft.NANDViaToffoli().GarbageEntropy(); math.Abs(h-2) > 1e-12 {
		t.Fatalf("Toffoli entropy %v", h)
	}
}

func TestSynthesisThroughFacade(t *testing.T) {
	set := revft.SynthPlacements(revft.CNOT, revft.Toffoli)
	c, err := revft.Synthesize(revft.SynthFromKind(revft.MAJ), set)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("MAJ synthesized in %d gates", c.Len())
	}
}

func TestParallelCycleThroughFacade(t *testing.T) {
	c := revft.NewCycle2DParallel(revft.MAJ)
	if err := revft.CheckLocal(c.Circuit, c.Layout, nil); err != nil {
		t.Fatalf("parallel cycle not local: %v", err)
	}
	if c.AuditSingleFaults().Tolerant() {
		t.Fatal("parallel cycle should not be strictly fault tolerant")
	}
}

func TestCoolingThroughFacade(t *testing.T) {
	tree := revft.NewCoolingTree(2)
	if tree.Circuit.Width() != 9 {
		t.Fatalf("depth-2 tree width = %d", tree.Circuit.Width())
	}
	if got := revft.CoolingBoost(0.2); math.Abs(got-0.296) > 1e-12 {
		t.Fatalf("CoolingBoost(0.2) = %v", got)
	}
	if revft.ResetBudget(6, 0.5) != 3 {
		t.Fatal("ResetBudget wrong")
	}
	// BCS has the right census.
	if revft.BCS(0, 1, 2).Len() != 2 {
		t.Fatal("BCS should be two gates")
	}
}

func TestSerializationThroughFacade(t *testing.T) {
	c := revft.Recovery()
	parsed, err := revft.ParseCircuit(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != c.Len() || parsed.Width() != c.Width() {
		t.Fatal("round trip changed shape")
	}
	if k, ok := revft.GateFromName("MAJ-1"); !ok || k != revft.MAJInv {
		t.Fatal("GateFromName alias failed")
	}
}

func TestPairAnalysisThroughFacade(t *testing.T) {
	g := revft.NewGadget(revft.MAJ, 1)
	c2 := g.QuadraticCoefficient()
	if c2 <= 0 || c2 >= 165 {
		t.Fatalf("c₂ = %v", c2)
	}
	m, tot := g.MalignantPairs()
	if m == 0 || tot != 351 {
		t.Fatalf("pairs %d/%d", m, tot)
	}
}
