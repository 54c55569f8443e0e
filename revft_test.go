package revft_test

// These tests exercise the library strictly through its public facade, the
// way an importing project would.

import (
	"context"
	"strings"
	"testing"

	"revft"
)

func TestQuickstartFlow(t *testing.T) {
	// Build and run the paper's recovery circuit by hand.
	c := revft.Recovery()
	st := revft.NewState(c.Width())
	revft.EncodeBit(st, revft.RecoveryDataWires, true, 1)
	c.Run(st)
	if !revft.DecodeBit(st, revft.RecoveryOutputWires, 1) {
		t.Fatal("recovery lost the logical value")
	}
}

func TestGadgetThroughFacade(t *testing.T) {
	g := revft.NewGadget(revft.MAJ, 1)
	est, err := g.Estimate(context.Background(), revft.UniformInput, revft.NoisyRun(revft.UniformNoise(1e-3)), 0, 0, 30000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := est.Wilson(1.96); hi >= 1e-3 {
		t.Fatalf("level-1 logical error %v not below g", est)
	}
}

func TestCircuitBuilderThroughFacade(t *testing.T) {
	c := revft.NewCircuit(3).MAJ(0, 1, 2)
	// Packed 0b011 is the paper's state "110" (q0=1, q1=1, q2=0); Table 1
	// maps 110 → 101, i.e. packed 0b101.
	if got := c.Eval(0b011); got != 0b101 {
		t.Fatalf("MAJ(110 in paper order) = %03b, want 101", got)
	}
}

func TestThresholdValues(t *testing.T) {
	if revft.Threshold(revft.GNonLocal) != 1.0/108 {
		t.Fatal("threshold constant wrong through facade")
	}
	l, err := revft.RequiredLevels(1e6, revft.Threshold(revft.GNonLocal)/10, revft.GNonLocal)
	if err != nil || l != 2 {
		t.Fatalf("RequiredLevels = %d, %v", l, err)
	}
}

func TestAdderThroughFacade(t *testing.T) {
	c, l := revft.NewAdder(4)
	st := revft.NewState(l.Width())
	for i := 0; i < 4; i++ {
		st.Set(l.A[i], 5>>uint(i)&1 == 1)
		st.Set(l.B[i], 9>>uint(i)&1 == 1)
	}
	c.Run(st)
	var sum uint64
	for i := 0; i < 4; i++ {
		if st.Get(l.B[i]) {
			sum |= 1 << uint(i)
		}
	}
	if st.Get(l.Cout) {
		sum |= 1 << 4
	}
	if sum != 14 {
		t.Fatalf("5+9 = %d through facade", sum)
	}
}

func TestModuleCompileThroughFacade(t *testing.T) {
	logical := revft.NewCircuit(3).MAJ(0, 1, 2).Toffoli(0, 1, 2)
	m := revft.CompileModule(logical, 1)
	if m.Target().Injected()(0b011, nil, nil) {
		t.Fatalf("module output differs from the logical circuit's %03b", logical.Eval(0b011))
	}
}

func TestLatticeThroughFacade(t *testing.T) {
	cyc := revft.NewCycle2D(revft.MAJ)
	if err := revft.CheckLocal(cyc.Circuit, cyc.Layout, nil); err != nil {
		t.Fatalf("2D cycle not local via facade: %v", err)
	}
	if err := revft.CheckLocal(revft.Recovery1D(), revft.Line{N: 9}, revft.InitExempt); err != nil {
		t.Fatalf("1D recovery not local via facade: %v", err)
	}
}

func TestEntropyThroughFacade(t *testing.T) {
	if revft.BinaryEntropy(0.5) != 1 {
		t.Fatal("H(1/2) != 1")
	}
	if revft.MaxEntropyLevels(1e-2, 11) < 2.2 {
		t.Fatal("entropy depth limit wrong")
	}
	if revft.LandauerHeat(1, 300) <= 0 {
		t.Fatal("Landauer heat non-positive")
	}
}

func TestFaultInjectionThroughFacade(t *testing.T) {
	c := revft.NewCircuit(1).NOT(0).NOT(0)
	st := revft.NewState(1)
	revft.RunInjected(c, st, revft.NewFaultPlan(revft.Injection{OpIndex: 0, Value: 0}))
	if !st.Get(0) {
		t.Fatal("injection had no effect")
	}
}

func TestMonteCarloThroughFacade(t *testing.T) {
	est := revft.MonteCarlo(10000, 4, 9, func(r *revft.RNG) bool { return r.Bool(0.5) })
	if est.Trials != 10000 {
		t.Fatal("wrong trial count")
	}
	if est.Rate() < 0.45 || est.Rate() > 0.55 {
		t.Fatalf("rate = %v", est.Rate())
	}
}

// TestMonteCarloPanicPropagates: the facade's context-free MonteCarlo
// re-raises a trial panic as the harness's error, so a caller that cannot
// handle an error still crashes loudly with the seed and block that
// reproduce it.
func TestMonteCarloPanicPropagates(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok || !strings.Contains(err.Error(), "trial panic in block 0 (seed 1,") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("recovered %v (%T), want the trial panic of block 0, seed 1", err, err)
		}
	}()
	revft.MonteCarlo(1000, 1, 1, func(r *revft.RNG) bool { panic("boom") })
}

func TestBaselineThroughFacade(t *testing.T) {
	th := revft.MultiplexingThreshold()
	if th < 0.08 || th > 0.1 {
		t.Fatalf("multiplexing threshold = %v", th)
	}
}
