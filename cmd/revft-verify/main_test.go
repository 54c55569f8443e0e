package main

import (
	"testing"

	"revft/internal/core"
	"revft/internal/gate"
)

func runChecks(t *testing.T, cs []check) {
	t.Helper()
	for _, c := range cs {
		if err := c.run(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestChecks runs the default suite, the checks revft-verify prints with
// no flags.
func TestChecks(t *testing.T) { runChecks(t, checks()) }

// TestExactChecks runs the oracle checks behind -exact.
func TestExactChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle enumerations skipped in -short mode")
	}
	runChecks(t, exactChecks())
}

// TestTolerantFails: the single-fault check must be able to fail — a bare
// MAJ gate corrects no fault.
func TestTolerantFails(t *testing.T) {
	if err := tolerant(core.Plain("maj", core.GateCircuit(gate.MAJ)))(); err == nil {
		t.Fatal("an unprotected MAJ gate passed the single-fault check")
	} else {
		t.Log(err)
	}
}
