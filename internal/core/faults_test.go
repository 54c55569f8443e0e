package core

import (
	"testing"

	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/threshold"
)

// TestQuadraticCoefficientBoundedByPaper: the exact two-fault coefficient
// must be positive and far below the paper's 3·C(G,2) = 165 declaration
// that every pair is malignant.
func TestQuadraticCoefficientBoundedByPaper(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)
	c2 := g.QuadraticCoefficient()
	bound := 3 * threshold.Choose(threshold.GNonLocalInit, 2)
	if c2 <= 0 {
		t.Fatalf("c₂ = %v, want positive", c2)
	}
	if c2 >= bound {
		t.Fatalf("c₂ = %v not below the paper's %v", c2, bound)
	}
	// The bound should be loose by roughly an order of magnitude.
	if bound/c2 < 5 {
		t.Fatalf("bound/c₂ = %v; expected the paper's count to be much looser", bound/c2)
	}
}

// TestQuadraticCoefficientPredictsMC: c₂·g² must match the measured
// logical error rate at small g.
func TestQuadraticCoefficientPredictsMC(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)
	c2 := g.QuadraticCoefficient()
	const gerr = 3e-3
	est := scalarRate(t, g.Target, Uniform, Noisy(noise.Uniform(gerr)), 400000, 51)
	predicted := c2 * gerr * gerr
	lo, hi := est.Wilson(1.96)
	if predicted < lo*0.75 || predicted > hi*1.25 {
		t.Fatalf("c₂·g² = %v outside measured band [%v, %v] (c₂ = %v)", predicted, lo, hi, c2)
	}
}

// TestMalignantPairsMinority: most op pairs are benign.
func TestMalignantPairsMinority(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)
	malignant, total := g.MalignantPairs()
	if total != 27*26/2 {
		t.Fatalf("total pairs = %d, want 351", total)
	}
	if malignant == 0 {
		t.Fatal("no malignant pairs at all — two-fault failures must exist")
	}
	if malignant >= total/2 {
		t.Fatalf("malignant pairs = %d of %d; expected a minority", malignant, total)
	}
}

// TestPairWalkPins pins the pair walk's two readings of the level-1 MAJ
// gadget: c₂ = 825/64, which package exact's oracle also derives, and 51
// malignant pairs of 351.
func TestPairWalkPins(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)
	if got := g.QuadraticCoefficient(); got != 825.0/64 {
		t.Fatalf("c₂ = %v, want 825/64", got)
	}
	if m, tot := g.MalignantPairs(); m != 51 || tot != 351 {
		t.Fatalf("malignant pairs = %d of %d, want 51 of 351", m, tot)
	}
}

// TestAuditUnprotectedGate is the audit's negative control: a bare MAJ
// gate corrects nothing, so a fault fails on every input unless it leaves
// the ideal output — 7 of the 8 values — and λ = 7/8.
func TestAuditUnprotectedGate(t *testing.T) {
	a := Plain("maj", GateCircuit(gate.MAJ)).AuditSingleFaults()
	if a.Tolerant() || a.Cases != 64 || len(a.Failures) != 56 {
		t.Fatalf("audit = %d failures of %d cases, want 56 of 64", len(a.Failures), a.Cases)
	}
	for _, f := range a.Failures {
		if f.OpIndex != 0 || f.Value == gate.MAJ.Eval(f.Input) {
			t.Fatalf("failure %+v: the ideal value cannot fail", f)
		}
	}
	if !a.VulnerableOps[0] || len(a.VulnerableOps) != 1 {
		t.Fatalf("vulnerable ops = %v, want {0}", a.VulnerableOps)
	}
	if got := a.LinearCoefficient(); got != 7.0/8 {
		t.Fatalf("λ = %v, want 7/8", got)
	}
}

// TestInjectedAllocatesNothing: the pair walk makes ~180k injected runs on
// the level-1 gadget, so one run must not allocate.
func TestInjectedAllocatesNothing(t *testing.T) {
	run := NewGadget(gate.MAJ, 1).Injected()
	ops := []int{3, 20}
	vals := []uint64{5, 2}
	if n := testing.AllocsPerRun(100, func() { run(6, ops, vals) }); n != 0 {
		t.Fatalf("Injected run allocates %v times per call, want 0", n)
	}
}

func BenchmarkQuadraticCoefficient(b *testing.B) {
	g := NewGadget(gate.MAJ, 1)
	for i := 0; i < b.N; i++ {
		g.QuadraticCoefficient()
	}
}
