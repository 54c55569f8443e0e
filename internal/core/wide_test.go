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
				if _, err := g.Estimate(context.Background(), in, Noisy(m), 8, 0, blocks*sim.BlockTrials, 1, 3); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, many := allocs(1), allocs(64); many != one {
			t.Errorf("input %+v: 64 blocks allocate %v times, one block %v", in, many, one)
		}
	}
}

// TestEstimateLanesRunOnlyNoisy: the lane engine has no fault-process or
// idle-schedule path, so Estimate refuses those runs at any width and
// runs no trial; the scalar engine runs them.
func TestEstimateLanesRunOnlyNoisy(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)
	sched := sim.NewScheduled(g.Circuit)
	for name, run := range map[string]Run{
		"process": Process(noise.Burst{Gate: 1e-2, Init: 1e-2, Corr: 0.5}),
		"idle":    Idle(sched, noise.Idle{Gate: 1e-2, Init: 1e-2, Idle: 1e-2}),
	} {
		for _, words := range []int{1, 4, 8} {
			res, err := g.Estimate(context.Background(), Uniform, run, words, 0, 1000, 1, 3)
			if err == nil || res.Trials != 0 {
				t.Errorf("%s at %d words: %v, err %v; want an error and no trials", name, words, res, err)
			}
		}
		if res, err := g.Estimate(context.Background(), Uniform, run, 0, 0, 1000, 1, 3); err != nil || res.Trials != 1000 {
			t.Errorf("%s on the scalar engine: %v, err %v", name, res, err)
		}
	}
}
