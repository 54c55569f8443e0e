package exp

import (
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/sim"
)

// IdleNoise measures the architecture/performance trade-off the paper's
// issue 1 raises: when idle bits also decay (flip with probability
// idleFrac·g per time step), both local schemes degrade — the 1D cycle is
// ~4x deeper than the 2D cycle, so its absolute error grows faster, keeping
// it an order of magnitude worse across the sweep.
func IdleNoise(g float64, idleFracs []float64, p MCParams) *Table {
	t := &Table{
		ID:     "F4/F7",
		Title:  "Ablation: idle-bit noise — scheduled execution of the local cycles",
		Header: []string{"idle/g", "2D measured", "1D measured", "1D/2D"},
	}
	c2 := lattice.NewCycle2D(gate.MAJ)
	c1 := lattice.NewCycle1D(gate.MAJ)
	s2 := sim.NewScheduled(c2.Circuit)
	s1 := sim.NewScheduled(c1.Circuit)
	for i, f := range idleFracs {
		m := noise.Idle{Gate: g, Init: g, Idle: f * g}
		e2 := sim.MonteCarlo(p.Trials, p.Workers, p.Seed+uint64(2*i), c2.Trial(core.Uniform, core.Idle(s2, m)))
		e1 := sim.MonteCarlo(p.Trials, p.Workers, p.Seed+uint64(2*i+1), c1.Trial(core.Uniform, core.Idle(s1, m)))
		ratio := 0.0
		if e2.Rate() > 0 {
			ratio = e1.Rate() / e2.Rate()
		}
		t.AddRow(f, e2.Rate(), e1.Rate(), ratio)
	}
	t.AddNote("gate error g = %v; cycle depths: 2D = %d, 1D = %d time steps", g, s2.Depth(), s1.Depth())
	t.AddNote("the paper's model has noiseless idle bits (idle/g = 0); positive idle noise is our ablation")
	return t
}
