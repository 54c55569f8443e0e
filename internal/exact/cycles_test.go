package exact

import (
	"math/big"
	"testing"

	"revft/internal/gate"
	"revft/internal/lattice"
)

// TestCycleA1MatchesFaultAudit cross-checks two independent enumerations
// of the local cycles' single faults: the oracle's DFS over packed states
// and core.Target's audit, which injects every single fault through
// sim.RunInjectedList on bit vectors. The oracle's A₁ must equal the audit's
// linear coefficient exactly, and the pinned values record that only the
// perpendicular 2D routing is single-fault tolerant.
func TestCycleA1MatchesFaultAudit(t *testing.T) {
	for _, tc := range []struct {
		cycle *lattice.Cycle
		a1    *big.Rat
	}{
		{lattice.NewCycle2D(gate.MAJ), big.NewRat(0, 1)},
		{lattice.NewCycle1D(gate.MAJ), big.NewRat(51, 32)},
		{lattice.NewCycle2DParallel(gate.MAJ), big.NewRat(83, 32)},
	} {
		name := tc.cycle.Name
		p, err := Enumerate(tc.cycle.Target, Options{MaxWeight: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		audit := tc.cycle.AuditSingleFaults()
		lambda := new(big.Rat).SetFloat64(audit.LinearCoefficient())
		if got := p.Coeff(1); got.Cmp(lambda) != 0 {
			t.Errorf("%s: oracle A₁ = %v, audit linear coefficient = %v", name, got.RatString(), lambda.RatString())
		}
		if got := p.Coeff(1); got.Cmp(tc.a1) != 0 {
			t.Errorf("%s: A₁ = %v, want %v", name, got.RatString(), tc.a1.RatString())
		}
		if p.SingleFaultTolerant() != audit.Tolerant() {
			t.Errorf("%s: oracle single-fault tolerant = %v, audit = %v", name, p.SingleFaultTolerant(), audit.Tolerant())
		}
	}
}

// TestCycle2DA2 pins the perpendicular 2D cycle's exact quadratic
// coefficient: with A₁ = 0 it is the leading term of the cycle's logical
// error rate, A₂·ε².
func TestCycle2DA2(t *testing.T) {
	c := lattice.NewCycle2D(gate.MAJ)
	p, err := Enumerate(c.Target, Options{MaxWeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Coeff(2), big.NewRat(2445, 64); got.Cmp(want) != 0 {
		t.Fatalf("cycle2d A₂ = %v, want %v", got.RatString(), want.RatString())
	}
}
