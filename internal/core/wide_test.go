package core

import (
	"context"
	"testing"

	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/sim"
)

// TestEstimateAllocationsFlat is sim.TestBlocksAllocateNothing for the
// lane batch the estimators run: each worker builds its lane state and
// buffers once, so a 64-block lanes512 estimate allocates exactly what a
// one-block estimate does, on random and on fixed inputs.
func TestEstimateAllocationsFlat(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)
	m := noise.Uniform(1e-2)
	for _, in := range []Input{Uniform, Fixed(1)} {
		allocs := func(blocks int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := g.estimate(context.Background(), in, m, 8, 0, blocks*sim.BlockTrials, 1, 3); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, many := allocs(1), allocs(64); many != one {
			t.Errorf("input %+v: 64 blocks allocate %v times, one block %v", in, many, one)
		}
	}
}
