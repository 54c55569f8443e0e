package lanes_test

import (
	"sort"
	"strings"
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

// TestGadget3LivenessMatchesFullProgram runs the liveness differential on
// the level-3 gadget, the first whose INIT3s end a live wire's liveness.
func TestGadget3LivenessMatchesFullProgram(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 3)
	checkLiveness(t, g.Name, g.Circuit, noise.Uniform(0.002), 1, outWires(g.Target), 9)
}

// TestDrawRunPlanMatchesRun: Draw draws Run's randomness and fault count,
// and walking its live faults with RunPlan leaves every decoded wire as
// Run leaves it, on random circuits and the level-2 gadget.
func TestDrawRunPlanMatchesRun(t *testing.T) {
	r := rng.New(43)
	type tc struct {
		c    *circuit.Circuit
		outs []int
	}
	cases := []tc{{core.NewGadget(gate.MAJ, 2).Circuit, outWires(core.NewGadget(gate.MAJ, 2).Target)}}
	for i := 0; i < 20; i++ {
		width := 3 + r.Intn(8)
		cases = append(cases, tc{circuit.Random(r, width, 30, nil), r.Perm(width)[:1+r.Intn(width)]})
	}
	for i, c := range cases {
		for _, words := range []int{1, 8} {
			prog := lanes.CompileWideFor(c.c, noise.IID{Gate: 0.01, Init: 0.05}, words, c.outs)
			a, b := lanes.NewWideState(c.c.Width(), words), lanes.NewWideState(c.c.Width(), words)
			ra, rb := rng.New(uint64(i)), rng.New(uint64(i))
			var live []lanes.Fault
			for batch := 0; batch < 3; batch++ {
				for j := range a.W {
					a.W[j] = r.Uint64()
					b.W[j] = a.W[j]
				}
				fa := prog.Run(a, ra)
				var fb int
				live, fb = prog.Draw(rb, live[:0])
				prog.RunPlan(b, live)
				if fa != fb || ra.Uint64() != rb.Uint64() {
					t.Fatalf("case %d K=%d batch %d: Run drew %d faults, Draw %d, or their streams diverged", i, words, batch, fa, fb)
				}
				for _, f := range live {
					if !prog.Live(int(f.Point)) {
						t.Fatalf("case %d: Draw kept a fault on dead point %d", i, f.Point)
					}
				}
				for _, w := range c.outs {
					for k, x := range a.Wire(w) {
						if y := b.Wire(w)[k]; x != y {
							t.Fatalf("case %d K=%d batch %d wire %d word %d: Run %016x, Draw+RunPlan %016x", i, words, batch, w, k, x, y)
						}
					}
				}
			}
		}
	}
}

// TestRunPlanRejectsBadPlans: a plan out of point order or naming a
// point or lane outside the program is a programming error.
func TestRunPlanRejectsBadPlans(t *testing.T) {
	c := circuit.New(3).MAJ(0, 1, 2).CNOT(0, 1)
	prog := lanes.CompileWide(c, noise.Uniform(0.1), 1)
	st := lanes.NewWideState(3, 1)
	// long is a plan of one fault more than the walk reads ahead at once,
	// so its last fault is first seen as the next chunk's first.
	long := func(last lanes.Fault) []lanes.Fault {
		plan := make([]lanes.Fault, 256)
		for i := range plan {
			plan[i].Lane = uint16(i % 64)
		}
		return append(plan, last)
	}
	for name, plan := range map[string][]lanes.Fault{
		"unsorted":      {{Point: 1}, {Point: 0}},
		"point":         {{Point: 2}},
		"lane":          {{Point: 0, Lane: 64}},
		"long unsorted": append(long(lanes.Fault{Point: 1}), lanes.Fault{Point: 0}),
		"long point":    long(lanes.Fault{Point: 2}),
		"long past":     long(lanes.Fault{Point: 3}),
		"long lane":     long(lanes.Fault{Point: 1, Lane: 64}),
	} {
		func() {
			defer func() {
				v := recover()
				if msg, ok := v.(string); !ok || !strings.HasPrefix(msg, "lanes: RunPlan") {
					t.Errorf("%s plan: panic %v, want the RunPlan check's", name, v)
				}
			}()
			prog.RunPlan(st, plan)
		}()
	}
}

// TestRunPlanPassesOverDeadFaults: faults on points that are not live —
// on dropped ops, past the last walked op, or on a fused sub-step whose
// targets are all dead — change no wire the program was compiled for,
// wherever they fall among a plan's live faults, chunk ends included.
func TestRunPlanPassesOverDeadFaults(t *testing.T) {
	r := rng.New(45)
	g := core.NewGadget(gate.MAJ, 2)
	type tc struct {
		c    *circuit.Circuit
		outs []int
	}
	cases := []tc{{g.Circuit, outWires(g.Target)}}
	for i := 0; i < 30; i++ {
		width := 3 + r.Intn(6)
		c := circuit.New(width)
		for n := 0; n < 6; n++ {
			p := r.Perm(width)
			if r.Intn(2) == 0 {
				c.CNOT(p[0], p[1]).CNOT(p[0], p[2]).Toffoli(p[1], p[2], p[0])
			} else {
				c.Compose(circuit.Random(r, width, 4, nil))
			}
		}
		cases = append(cases, tc{c, r.Perm(width)[:1+r.Intn(2)]})
	}
	tail := 0 // programs whose last point is past the last walked op
	for i, c := range cases {
		for _, words := range []int{1, 8} {
			prog := lanes.CompileWideFor(c.c, noise.IID{Gate: 0.05, Init: 0.1}, words, c.outs)
			var dead []int
			for pt := 0; pt < prog.Points(); pt++ {
				if !prog.Live(pt) {
					dead = append(dead, pt)
				}
			}
			if len(dead) == 0 {
				continue
			}
			if !prog.Live(prog.Points() - 1) {
				tail++
			}
			live, _ := prog.Draw(r, nil)
			var mixed []lanes.Fault
			for j := 0; j < len(live)+3*len(dead); j++ {
				f := lanes.Fault{Point: int32(dead[r.Intn(len(dead))]), Lane: uint16(r.Intn(prog.Lanes())), Bits: uint8(r.Intn(8))}
				mixed = append(mixed, f)
			}
			mixed = append(mixed, live...)
			sort.SliceStable(mixed, func(a, b int) bool { return mixed[a].Point < mixed[b].Point })
			a, b := lanes.NewWideState(c.c.Width(), words), lanes.NewWideState(c.c.Width(), words)
			for j := range a.W {
				a.W[j] = r.Uint64()
				b.W[j] = a.W[j]
			}
			prog.RunPlan(a, live)
			prog.RunPlan(b, mixed)
			for _, w := range c.outs {
				for k, x := range a.Wire(w) {
					if y := b.Wire(w)[k]; x != y {
						t.Fatalf("case %d K=%d wire %d word %d: %016x with live faults only, %016x with dead ones too", i, words, w, k, x, y)
					}
				}
			}
		}
	}
	if tail == 0 {
		t.Fatal("no program had a dead point past its last walked op")
	}
}

// TestDeadOpsPinned records which circuits the liveness pass reaches:
// of the level-2 gadget's 729 compiled ops, 144 write only wires no later
// op reads and no output decodes, and of the level-3 gadget's 19,683,
// 7,344, 1,728 of them because a later INIT3 overwrites their result; every op
// of the level-1 gadget, both local cycles and the level-1 adder module
// reaches an output.
func TestDeadOpsPinned(t *testing.T) {
	logical, _ := adder.New(4)
	cases := []struct {
		t         core.Target
		dead, ops int
	}{
		{core.NewGadget(gate.MAJ, 1).Target, 0, 27},
		{core.NewGadget(gate.MAJ, 2).Target, 144, 729},
		{core.NewGadget(gate.MAJ, 3).Target, 7344, 19683},
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
