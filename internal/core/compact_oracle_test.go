package core_test

import (
	"context"
	"testing"

	"revft/internal/core"
	"revft/internal/exact"
	"revft/internal/gate"
	"revft/internal/noise"
)

// TestCompactedMatchesOracle: compacted estimates of the recovery and
// the level-1 gadget (both d = 2) at g = 0.003, 2^26 trials each, lie
// within the exact oracle's weight-3 bounds at z = 4 (Wilson). The
// failure rate there is about 1e-4, so each estimate holds some 7,000
// failures and a bias of 5% in the producer's law fails the check; the
// compacted path walks about 0.3% of the lanes, which keeps it fast.
// The two-sided normal tail at z = 4 is 6.3e-5 per estimate.
func TestCompactedMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("2^27 compacted trials")
	}
	const g, trials, z = 0.003, 1 << 26, 4.0
	for _, tg := range []core.Target{exact.Recovery(), exact.Gadget(core.NewGadget(gate.MAJ, 1))} {
		poly, err := exact.Enumerate(tg, exact.Options{MaxWeight: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tg.Estimate(context.Background(), core.Uniform, core.Noisy(noise.Uniform(g)), 8, 0, trials, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := poly.Bounds(g)
		wlo, whi := res.Wilson(z)
		t.Logf("%s: %v, oracle [%.5g, %.5g]", tg.Name, res.Bernoulli, lo, hi)
		if whi < lo || wlo > hi {
			t.Errorf("%s at g=%v: compacted estimate %v [%.5g, %.5g] at z=%v misses the oracle's [%.5g, %.5g]",
				tg.Name, g, res.Bernoulli, wlo, whi, z, lo, hi)
		}
	}
}
