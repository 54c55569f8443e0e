package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
)

// quadratic is A₂ of a pair count: each failing (pair, values, input)
// case weighs 1/(inputs · values of i · values of j).
func quadratic(tg core.Target, malignant map[[2]int]int) float64 {
	nin := float64(uint64(1) << uint(len(tg.In)))
	a2 := 0.0
	for p, f := range malignant {
		ar := tg.Circuit.Op(p[0]).Kind.Arity() + tg.Circuit.Op(p[1]).Kind.Arity()
		a2 += float64(f) / nin / float64(uint64(1)<<uint(ar))
	}
	return a2
}

// TestPairStageMatchesPairWalk: counting, the pair stage must fail
// exactly the (pair, values, input) cases the scalar pair walk
// (forEachPair on Injected) fails, pair by pair, on the recovery, the
// level-1 gadget, the 2D cycle and random circuits, whose single faults
// fail too and which hold INIT3s and dead points; the A₂ it gives must be
// the known exact values.
func TestPairStageMatchesPairWalk(t *testing.T) {
	cases := []struct {
		t  core.Target
		a2 float64 // 0: not pinned
	}{
		{recoveryTarget(), 71.0 / 32},
		{core.NewGadget(gate.MAJ, 1).Target, 825.0 / 64},
		{lattice.NewCycle2D(gate.MAJ).Target, 2445.0 / 64},
	}
	r := rng.New(27)
	for i := 0; i < 8; i++ {
		c := circuit.Random(r, 3+r.Intn(4), 4+r.Intn(20), nil)
		cases = append(cases, struct {
			t  core.Target
			a2 float64
		}{core.Plain(fmt.Sprintf("random%d", i), c), 0})
	}
	for _, tc := range cases {
		clean, fails, malignant, _, _, _ := core.PairAudit(tc.t, core.Uniform, 1<<40, true)
		want := core.PairFailures(tc.t)
		total := 0
		for p, f := range want {
			total += f
			if malignant[p] != f {
				t.Errorf("%s: pair %v fails %d cases, the scalar pair walk %d", tc.t.Name, p, malignant[p], f)
			}
		}
		for p, f := range malignant {
			if _, ok := want[p]; !ok {
				t.Errorf("%s: pair %v fails %d cases, the scalar pair walk none", tc.t.Name, p, f)
			}
		}
		if fails != total || clean != (total == 0) {
			t.Errorf("%s: %d failing cases (clean %v), the scalar pair walk %d", tc.t.Name, fails, clean, total)
		}
		if tc.a2 != 0 && quadratic(tc.t, malignant) != tc.a2 {
			t.Errorf("%s: A₂ = %v, want %v", tc.t.Name, quadratic(tc.t, malignant), tc.a2)
		}
		if tc.a2 != 0 && total == 0 {
			t.Errorf("%s: no failing pair; the check cannot fail", tc.t.Name)
		}
	}
}

// TestPairStageLive: the pair stage's live points, which its absorption
// rests on, must be the compiled program's, on targets whose outputs
// leave dead ops and on random circuits decoded on a few wires only.
func TestPairStageLive(t *testing.T) {
	adderT, _ := adderTarget()
	targets := []core.Target{recoveryTarget(), adderT, lattice.NewCycle1D(gate.MAJ).Target, lattice.NewCycle2D(gate.MAJ).Target}
	for level := 0; level <= 2; level++ {
		targets = append(targets, core.NewGadget(gate.MAJ, level).Target)
	}
	r := rng.New(5)
	for i := 0; i < 20; i++ {
		width := 3 + r.Intn(6)
		c := circuit.Random(r, width, 5+r.Intn(40), nil)
		all := core.Plain("random", c)
		all.Out = all.Out[:1+r.Intn(2)]
		targets = append(targets, all)
	}
	for _, tg := range targets {
		prog := tg.CompileWide(noise.Uniform(0.01), 1)
		for pt, live := range core.PairLive(tg) {
			if live != prog.Live(pt) {
				t.Errorf("%s: point %d live %v, the program's %v", tg.Name, pt, live, prog.Live(pt))
			}
		}
	}
}

// TestLevel2PairCertificate: no pair of faults fails the level-2 gadget,
// on any values and input (A₂ = 0 exactly, the paper's §2.2 argument), so
// its audit certifies d = 3.
func TestLevel2PairCertificate(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 2).Target
	t0 := time.Now()
	if d := core.Certify(g, core.Uniform, core.PairBudget); d != 3 {
		t.Fatalf("level-2 gadget: d = %d, want 3", d)
	}
	t.Logf("level-2 audit, single-fault and pair stages: %v", time.Since(t0))
	clean, fails, _, pairs, met, work := core.PairAudit(g, core.Uniform, 1<<40, true)
	if !clean || fails != 0 {
		t.Errorf("level-2 gadget: %d failing pair cases, want 0", fails)
	}
	t.Logf("level-2 pair stage: %d pairs in a window, %d walked, %d units of work", pairs, met, work)
}

// TestPairStageStopsAtMalignantPair: targets with malignant pairs keep
// d = 2, and the certifying stage stops at the first one, early.
func TestPairStageStopsAtMalignantPair(t *testing.T) {
	adderT, adderIn := adderTarget()
	cases := []struct {
		t  core.Target
		in core.Input
	}{
		{recoveryTarget(), core.Uniform},
		{core.NewGadget(gate.MAJ, 1).Target, core.Uniform},
		{lattice.NewCycle2D(gate.MAJ).Target, core.Uniform},
		{adderT, adderIn},
	}
	for _, tc := range cases {
		if d := core.Certify(tc.t, tc.in, core.PairBudget); d != 2 {
			t.Errorf("%s: d = %d, want 2", tc.t.Name, d)
		}
		_, _, _, pairs, _, work := core.PairAudit(tc.t, tc.in, core.PairBudget, false)
		_, _, _, all, _, _ := core.PairAudit(tc.t, tc.in, 1<<40, true)
		if pairs >= all {
			t.Errorf("%s: the certifying stage looked at %d pairs, all %d of them", tc.t.Name, pairs, all)
		}
		t.Logf("%s: stopped after %d of %d pairs, %d units of work", tc.t.Name, pairs, all, work)
	}
}

// mutatedLevel2 is the level-2 gadget with two SWAPs appended that each
// exchange a wire of operand 0's first level-1 sub-block with one of its
// second: noiselessly a no-op, since every wire of the codeword carries
// the logical bit, and a single fault on either leaves one error in each
// sub-block, but faults on both break two sub-blocks at once.
func mutatedLevel2() core.Target {
	g := core.NewGadget(gate.MAJ, 2)
	c := circuit.New(g.Circuit.Width()).Compose(g.Circuit)
	o := g.Out[0]
	c.Append(gate.SWAP, o[0], o[3]).Append(gate.SWAP, o[1], o[4])
	return core.Target{Name: "mutated.L2", Circuit: c, In: g.In, Out: g.Out, Logical: g.Logical}
}

// TestMutatedLevel2LosesPairCertificate: the mutated level-2 gadget keeps
// d = 2 with a nonzero A₂, and no lane its compacted batches skip (fewer
// than two live faults) fails.
func TestMutatedLevel2LosesPairCertificate(t *testing.T) {
	mut := mutatedLevel2()
	if d := core.Certify(mut, core.Uniform, core.PairBudget); d != 2 {
		t.Errorf("mutated level-2 gadget: d = %d, want 2", d)
	}
	_, fails, malignant, _, _, _ := core.PairAudit(mut, core.Uniform, 1<<40, true)
	n := mut.Circuit.Len()
	if fails == 0 || malignant[[2]int{n - 2, n - 1}] == 0 {
		t.Errorf("mutated level-2 gadget: %d failing pair cases %v, want the two SWAPs' among them", fails, malignant)
	}
	t.Logf("mutated level-2 gadget: A₂ = %v over %d malignant pairs", quadratic(mut, malignant), len(malignant))
	checkSkippedLanes(t, mut, core.Uniform, noise.Uniform(0.00303), 8, 1, 0, 4*sim.BlockTrials)
}

// TestPairStageBudget: past its budget the audit gives up. On the
// level-2 gadget a tiny budget certifies at most d = 1 (its single walks
// end past it), 20,000 units d = 2 (its pairs stop just past it) and
// PairBudget d = 3.
func TestPairStageBudget(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 2).Target
	rows := []struct {
		budget int
		want   []int
	}{{10, []int{0, 1}}, {20000, []int{2}}, {core.PairBudget, []int{3}}}
	for _, r := range rows {
		if d := core.Certify(g, core.Uniform, r.budget); !slices.Contains(r.want, d) {
			t.Errorf("budget %d: d = %d, want one of %v", r.budget, d, r.want)
		}
	}
	const budget = 20000
	clean, _, _, _, _, work := core.PairAudit(g, core.Uniform, budget, false)
	if clean || work <= budget || work > budget+1000 {
		t.Errorf("budget %d: clean %v after %d units of work, want a stop just past the budget", budget, clean, work)
	}
}

// BenchmarkLaneAudit times the level-2 gadget's whole lane audit (ns/op
// per audit). Run it with `go test ./internal/core -run '^$' -bench
// LaneAudit -cpu 1`.
func BenchmarkLaneAudit(b *testing.B) {
	g := core.NewGadget(gate.MAJ, 2).Target
	for i := 0; i < b.N; i++ {
		if d := core.Certify(g, core.Uniform, core.PairBudget); d != 3 {
			b.Fatalf("level-2 gadget: d = %d, want 3", d)
		}
	}
}
