package lanes_test

import (
	"testing"

	"revft/internal/adder"
	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/rng"
)

// checkLiveness is the liveness differential: on the same start state
// and seed, the program compiled for outs must report the fault count of
// the program compiled for every wire, and leave every lane of every
// outs wire as it does, over several consecutive batches.
func checkLiveness(t *testing.T, name string, c *circuit.Circuit, m noise.Model, words int, outs []int, seed uint64) {
	t.Helper()
	full, live := lanes.CompileWide(c, m, words), lanes.CompileWideFor(c, m, words, outs)
	if live.Len() != full.Len() || live.Dead() > live.Len() || full.Dead() != 0 {
		t.Fatalf("%s: Len %d/%d, Dead %d/%d", name, live.Len(), full.Len(), live.Dead(), full.Dead())
	}
	a, b := lanes.NewWideState(c.Width(), words), lanes.NewWideState(c.Width(), words)
	init, ra, rb := rng.New(seed), rng.New(seed+1), rng.New(seed+1)
	for batch := 0; batch < 4; batch++ {
		for i := range a.W {
			a.W[i] = init.Uint64()
			b.W[i] = a.W[i]
		}
		if fa, fb := full.Run(a, ra), live.Run(b, rb); fa != fb {
			t.Fatalf("%s batch %d: %d faults with every wire live, %d with outs %v", name, batch, fa, fb, outs)
		}
		for _, w := range outs {
			for k, x := range a.Wire(w) {
				if y := b.Wire(w)[k]; x != y {
					t.Fatalf("%s batch %d: outs %v, wire %d word %d: %016x with every wire live, %016x pruned",
						name, batch, outs, w, k, x, y)
				}
			}
		}
	}
}

// TestLivenessMatchesFullProgram runs the liveness differential on random
// circuits, seeded with fusible triples so that fused ops lose single
// sub-steps' targets, under one- and two-sampler models, for random
// output sets including the empty one.
func TestLivenessMatchesFullProgram(t *testing.T) {
	r := rng.New(41)
	models := []noise.Model{noise.Uniform(0.05), noise.IID{Gate: 0.03, Init: 0.2}, noise.PerfectInit(0.04)}
	dead := 0
	for trial := 0; trial < 60; trial++ {
		width := 3 + r.Intn(8)
		c := circuit.New(width)
		for n := 0; n < 8; n++ {
			p := r.Perm(width)
			switch r.Intn(4) {
			case 0:
				c.CNOT(p[0], p[1]).CNOT(p[0], p[2]).Toffoli(p[1], p[2], p[0])
			case 1:
				c.Toffoli(p[1], p[2], p[0]).CNOT(p[0], p[1]).CNOT(p[1], p[2])
			default:
				c.Compose(circuit.Random(r, width, 4, nil))
			}
		}
		outs := []int{}
		for w := 0; w < width; w++ {
			if r.Intn(3) == 0 {
				outs = append(outs, w)
			}
		}
		for _, words := range []int{1, 4, 8} {
			m := models[trial%len(models)]
			checkLiveness(t, "random", c, m, words, outs, uint64(100*trial+words))
			dead += lanes.CompileWideFor(c, m, words, outs).Dead()
		}
	}
	if dead == 0 {
		t.Fatal("no random circuit had a dead op: the differential never pruned")
	}
}

// outWires lists every wire a target decodes, the set its lane batch
// compiles for.
func outWires(t core.Target) []int {
	var outs []int
	for _, wires := range t.Out {
		outs = append(outs, wires...)
	}
	return outs
}

// TestGadget2LivenessMatchesFullProgram runs the liveness differential on
// the level-2 gadget for its decoded wires.
func TestGadget2LivenessMatchesFullProgram(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 2)
	for _, m := range []noise.Model{noise.Uniform(0.01), noise.IID{Gate: 0.005, Init: 0.02}} {
		for _, words := range []int{1, 4, 8} {
			checkLiveness(t, g.Name, g.Circuit, m, words, outWires(g.Target), 7)
		}
	}
}

// TestDeadOpsPinned records which circuits the liveness pass reaches:
// of the level-2 gadget's 729 compiled ops, 144 write only wires no later
// op reads and no output decodes; every op of the level-1 gadget, both
// local cycles and the level-1 adder module reaches an output.
func TestDeadOpsPinned(t *testing.T) {
	logical, _ := adder.New(4)
	cases := []struct {
		t         core.Target
		dead, ops int
	}{
		{core.NewGadget(gate.MAJ, 1).Target, 0, 27},
		{core.NewGadget(gate.MAJ, 2).Target, 144, 729},
		{lattice.NewCycle1D(gate.MAJ).Target, 0, 88},
		{lattice.NewCycle2D(gate.MAJ).Target, 0, 39},
		{core.CompileModule(logical, 1).Target(), 0, 387},
	}
	for _, tc := range cases {
		p := lanes.CompileWideFor(tc.t.Circuit, noise.Uniform(1e-3), 8, outWires(tc.t))
		if p.Dead() != tc.dead || p.Len() != tc.ops {
			t.Errorf("%s: %d of %d ops dead, want %d of %d", tc.t.Name, p.Dead(), p.Len(), tc.dead, tc.ops)
		}
	}
}
