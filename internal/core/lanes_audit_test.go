package core_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"revft/internal/adder"
	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/telemetry"
)

// adderX is the packed input 1011 + 0110 of the level-1 Cuccaro adder
// module, the engine pins' adder.
var adderX = func() uint64 {
	_, l := adder.New(4)
	var in uint64
	a, b := uint64(0b1011), uint64(0b0110)
	for i := 0; i < 4; i++ {
		in |= (a >> uint(i) & 1) << uint(l.A[i])
		in |= (b >> uint(i) & 1) << uint(l.B[i])
	}
	return in
}()

// adderTarget is the level-1 Cuccaro adder module at adderX.
func adderTarget() (core.Target, core.Input) {
	logical, _ := adder.New(4)
	return core.CompileModule(logical, 1).Target(), core.Fixed(adderX)
}

// recoveryTarget is Figure 2's recovery as a storage target: the input
// codeword in, the recovered codeword out.
func recoveryTarget() core.Target {
	return core.Target{Name: "recovery", Circuit: core.Recovery(), In: [][]int{core.RecoveryDataWires},
		Out: [][]int{core.RecoveryOutputWires}, Logical: circuit.New(1)}
}

// TestInjectedWideMatchesInjected is the plan producer's deterministic
// differential: every lane of a plan batch — its own input and zero to
// three faults on random ops with random values, live or not — must fail
// exactly when Target.Injected fails on the same input and plan. Besides
// the gadgets and random circuits, it covers the bare 4-bit adder and
// random circuits seeded with the Figure 1 MAJ and MAJ⁻¹ decompositions
// and the adder's UMA triple: each of their CNOT and Toffoli ops is its
// own fault point.
func TestInjectedWideMatchesInjected(t *testing.T) {
	r := rng.New(17)
	bare, _ := adder.New(4)
	targets := []core.Target{core.NewGadget(gate.MAJ, 1).Target, core.NewGadget(gate.MAJ, 2).Target, core.Plain("adder", bare)}
	for i := 0; i < 12; i++ {
		width := 3 + r.Intn(6)
		targets = append(targets, core.Plain(fmt.Sprintf("random%d", i), circuit.Random(r, width, 4+r.Intn(30), nil)))
	}
	for i := 0; i < 8; i++ {
		width := 3 + r.Intn(6)
		c := circuit.New(width)
		for n := 0; n < 6; n++ {
			p := r.Perm(width)
			switch r.Intn(4) {
			case 0: // MAJ
				c.CNOT(p[0], p[1]).CNOT(p[0], p[2]).Toffoli(p[1], p[2], p[0])
			case 1: // MAJ⁻¹
				c.Toffoli(p[1], p[2], p[0]).CNOT(p[0], p[1]).CNOT(p[0], p[2])
			case 2: // UMA
				c.Toffoli(p[1], p[2], p[0]).CNOT(p[0], p[1]).CNOT(p[1], p[2])
			default:
				c.Compose(circuit.Random(r, width, 4, nil))
			}
		}
		targets = append(targets, core.Plain(fmt.Sprintf("triples%d", i), c))
	}
	type lanePlan struct {
		in   uint64
		ops  []int
		vals []uint64
	}
	for _, tg := range targets {
		scalar := tg.Injected()
		for _, words := range []int{1, 8} {
			prog := tg.CompileWide(noise.Uniform(0.01), words)
			wide := tg.InjectedWide(prog)
			for batch := 0; batch < 3; batch++ {
				n := prog.Lanes() - r.Intn(40)
				plans := make([]lanePlan, n)
				ins := make([]uint64, n)
				var plan []lanes.Fault
				for j := range plans {
					p := lanePlan{in: r.Bits(len(tg.In))}
					for _, op := range r.Perm(tg.Circuit.Len())[:min(r.Intn(4), tg.Circuit.Len())] {
						p.ops = append(p.ops, op)
					}
					sort.Ints(p.ops)
					for _, op := range p.ops {
						v := r.Bits(tg.Circuit.Op(op).Kind.Arity())
						p.vals = append(p.vals, v)
						plan = append(plan, lanes.Fault{Point: int32(op), Lane: uint16(j), Bits: prog.FaultBits(op, v)})
					}
					plans[j], ins[j] = p, p.in
				}
				sort.SliceStable(plan, func(a, b int) bool { return plan[a].Point < plan[b].Point })
				fail := wide(ins, plan)
				for j, p := range plans {
					got := fail[j>>6]>>uint(j&63)&1 == 1
					if want := scalar(p.in, p.ops, p.vals); got != want {
						t.Fatalf("%s K=%d lane %d: input %b, ops %v, values %v: lane engine fails=%v, Injected %v",
							tg.Name, words, j, p.in, p.ops, p.vals, got, want)
					}
				}
				for j := n; j < prog.Lanes(); j++ {
					if fail[j>>6]>>uint(j&63)&1 != 0 {
						t.Fatalf("%s K=%d: lane %d past the %d inputs is set", tg.Name, words, j, n)
					}
				}
			}
		}
	}
}

// auditCase is a target of the lane audit's checks, on an input domain,
// with the d measured for it.
type auditCase struct {
	t  core.Target
	in core.Input
	d  int
}

// auditTargets are the targets the drivers and revft-verify build: the
// recovery as a bare circuit and as a storage target, the seven gate
// gadgets at levels 0 and 1 and MAJ at level 2, the memory, the three
// cycles, and the bare and level-1 adders under the adder driver's
// operands.
func auditTargets() []auditCase {
	adderT, adderIn := adderTarget()
	bare, _ := adder.New(4)
	cases := []auditCase{
		{core.Plain("recovery.plain", core.Recovery()), core.Uniform, 1},
		{recoveryTarget(), core.Uniform, 2},
		{core.NewGadget(gate.MAJ, 2).Target, core.Uniform, 3},
		{core.NewMemory(1, 3).Target(), core.Uniform, 2},
		{lattice.NewCycle1D(gate.MAJ).Target, core.Uniform, 1},
		{lattice.NewCycle2D(gate.MAJ).Target, core.Uniform, 2},
		{lattice.NewCycle2DParallel(gate.MAJ).Target, core.Uniform, 1},
		{core.Plain("adder", bare), adderIn, 1},
		{adderT, adderIn, 2},
	}
	for _, k := range []gate.Kind{gate.MAJ, gate.MAJInv, gate.Toffoli, gate.CNOT, gate.NOT, gate.Fredkin, gate.SWAP} {
		for level := 0; level <= 1; level++ {
			cases = append(cases, auditCase{core.NewGadget(k, level).Target, core.Uniform, 1 + level})
		}
	}
	return cases
}

// domain is the packed logical inputs of in for tg.
func domain(tg core.Target, in core.Input, fixed uint64) []uint64 {
	if in != core.Uniform {
		return []uint64{fixed}
	}
	xs := make([]uint64, 1<<len(tg.In))
	for x := range xs {
		xs[x] = uint64(x)
	}
	return xs
}

// scalarSingles is AuditSingleFaults on the inputs xs: the failing
// single faults, in (input, op, value) order.
func scalarSingles(tg core.Target, xs []uint64) []core.FaultCase {
	run := tg.Injected()
	var fails []core.FaultCase
	for _, x := range xs {
		sim.ForEachSingleFault(tg.Circuit, func(op int, v uint64) {
			if run(x, []int{op}, []uint64{v}) {
				fails = append(fails, core.FaultCase{Input: x, OpIndex: op, Value: v})
			}
		})
	}
	return fails
}

// scalarPairFails reports whether some pair of faults fails tg on some
// values and input of xs: forEachPair's walk, stopped at the first
// failing case.
func scalarPairFails(tg core.Target, xs []uint64) bool {
	run := tg.Injected()
	n := tg.Circuit.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			vi, vj := uint64(1)<<tg.Circuit.Op(i).Kind.Arity(), uint64(1)<<tg.Circuit.Op(j).Kind.Arity()
			for _, x := range xs {
				for a := uint64(0); a < vi; a++ {
					for b := uint64(0); b < vj; b++ {
						if run(x, []int{i, j}, []uint64{a, b}) {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// laterChunkTarget is a level-1 module of a Toffoli on four logical
// wires (16 inputs, two chunks of the audit) with one physical op
// deleted: the first deletion, in op order, after which the noiseless
// run is right on every input and a pair of faults fails on an input of
// the first chunk, but the first failing single fault lies on an input of
// the second. An audit that settled d at its first failing pair would
// certify d = 2 for it, not 1.
func laterChunkTarget(t *testing.T) core.Target {
	t.Helper()
	logical := circuit.New(4).Toffoli(2, 3, 0)
	ft := core.CompileModule(logical, 1).Target()
	ops := ft.Circuit.Ops()
	all := domain(ft, core.Uniform, 0)
	for del := range ops {
		c := circuit.New(ft.Circuit.Width())
		for i, op := range ops {
			if i != del {
				c.Append(op.Kind, op.Targets...)
			}
		}
		tg := core.Target{Name: fmt.Sprintf("module.L1 without op %d", del), Circuit: c, In: ft.In, Out: ft.Out, Logical: logical}
		run := tg.Injected()
		right := true
		for _, x := range all {
			right = right && !run(x, nil, nil)
		}
		if fails := scalarSingles(tg, all); right && len(fails) > 0 && fails[0].Input >= 8 && scalarPairFails(tg, all[:8]) {
			return tg
		}
	}
	t.Fatal("no deletion fails a single fault only on the second chunk")
	return core.Target{}
}

// TestLaneAuditMatchesAuditSingleFaults: the lane audit's d must be the
// scalar references' verdict on every target the drivers build and on a
// target whose first failing single fault lies in a later chunk than a
// failing pair: 0 when Injected without faults is wrong on some input of
// the domain, 1 when a single fault fails (AuditSingleFaults on the
// domain), 2 when a pair does (forEachPair's walk), 3 otherwise. On the
// level-2 gadget the scalar pair walk takes minutes, so there the
// reference is the counting audit, which TestPairStageMatchesPairWalk
// checks against it pair by pair. The counting audit's failing single
// faults must be the scalar ones, location by location.
func TestLaneAuditMatchesAuditSingleFaults(t *testing.T) {
	cases := append(auditTargets(), auditCase{laterChunkTarget(t), core.Uniform, 1})
	for _, tc := range cases {
		xs := domain(tc.t, tc.in, adderX)
		run := tc.t.Injected()
		ref := 3
		for _, x := range xs {
			if run(x, nil, nil) {
				ref = 0
			}
		}
		var want []core.FaultCase // AuditSingleFaults on the domain
		if tc.in == core.Uniform {
			want = tc.t.AuditSingleFaults().Failures
		} else {
			want = scalarSingles(tc.t, xs)
		}
		switch {
		case ref == 0:
		case len(want) > 0:
			ref = 1
		case tc.t.Circuit.Len() > 500: // the level-2 gadget
			if _, fails, _, _, _, _ := core.PairAudit(tc.t, tc.in, 1<<40, true); fails > 0 {
				ref = 2
			}
		case scalarPairFails(tc.t, xs):
			ref = 2
		}
		d, fails := core.LaneAudit(tc.t, tc.in, core.PairBudget)
		if d != ref || d != tc.d {
			t.Errorf("%s: d = %d, the scalar references' %d, measured %d", tc.t.Name, d, ref, tc.d)
		}
		if ref == 0 {
			continue
		}
		if !slices.Equal(fails, want) {
			i := 0
			for i < min(len(fails), len(want)) && fails[i] == want[i] {
				i++
			}
			t.Errorf("%s: the lane audit fails %d single faults, the scalar audit %d; the lists part at %d: %v against %v",
				tc.t.Name, len(fails), len(want), i, fails[i:min(i+1, len(fails))], want[i:min(i+1, len(want))])
		}
	}
}

// TestLaneAuditBudget: the audit's d never falls as its budget grows and
// never exceeds the unbounded audit's. The level-3 gadget's single faults
// exceed the audit's cut-off, so it certifies d = 1 at any budget. The
// level-2 gadget's rows are TestPairStageBudget's.
func TestLaneAuditBudget(t *testing.T) {
	g2 := core.NewGadget(gate.MAJ, 2).Target
	g3 := core.NewGadget(gate.MAJ, 3).Target
	for _, budget := range []int{core.PairBudget, 1 << 40} {
		if d := core.Certify(g3, core.Uniform, budget); d != 1 {
			t.Errorf("level-3 gadget, budget %d: d = %d, want 1", budget, d)
		}
	}
	targets := []core.Target{recoveryTarget(), core.NewGadget(gate.MAJ, 1).Target, g2, lattice.NewCycle2D(gate.MAJ).Target, laterChunkTarget(t)}
	for _, tg := range targets {
		top := core.Certify(tg, core.Uniform, 1<<40)
		prev := 0
		for _, budget := range []int{0, 1, 10, 100, 1000, 10000, 20000, 100000, core.PairBudget, 1 << 40} {
			d := core.Certify(tg, core.Uniform, budget)
			if d < prev || d > top {
				t.Errorf("%s, budget %d: d = %d after %d at a smaller budget, %d unbounded", tg.Name, budget, d, prev, top)
			}
			prev = d
		}
	}
}

// TestMutatedGadgetLosesCertificate: the level-1 gadget without one of
// its transversal MAJs still decodes right noiselessly, but single
// faults break it, so its certificate drops to d = 1, and no lane its
// compacted batches skip (no live fault) fails.
func TestMutatedGadgetLosesCertificate(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 1)
	c := circuit.New(g.Circuit.Width())
	for i, op := range g.Circuit.Ops() {
		if i != 0 {
			c.Append(op.Kind, op.Targets...)
		}
	}
	mut := core.Target{Name: "mutated", Circuit: c, In: g.In, Out: g.Out, Logical: g.Logical}
	if d, fails := core.LaneAudit(mut, core.Uniform, core.PairBudget); d > 1 || len(fails) == 0 {
		t.Fatalf("mutated gadget: d = %d with %d failing single faults, want d ≤ 1", d, len(fails))
	}
	checkSkippedLanes(t, mut, core.Uniform, noise.Uniform(0.01), 8, 1, 0, 4*sim.BlockTrials)
}

// estimate runs one lane estimate at seed 5, compacting wherever the
// audit allows when compact is set and walking every lane otherwise.
func estimate(t *testing.T, tg core.Target, in core.Input, m noise.Model, compact bool, words, workers, start, trials int) sim.Result {
	t.Helper()
	below := -1.0
	if compact {
		below = 2
	}
	defer core.SetCompactBelow(core.SetCompactBelow(below))
	res, err := tg.Estimate(context.Background(), in, core.Noisy(m), words, start, trials, workers, 5)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSkippedLanes is the certificate's soundness end to end: with the
// skipped-lanes hook the compacted batches also draw every lane their
// producer skips (fewer than d live faults) and walk it beside the
// queued ones. None may fail, and the queued lanes must count what they
// count without the hook. It returns the compacted estimate.
func checkSkippedLanes(t *testing.T, tg core.Target, in core.Input, m noise.Model, words, workers, start, trials int) sim.Result {
	t.Helper()
	plain := estimate(t, tg, in, m, true, words, workers, start, trials)
	h := &core.SkippedLanes{}
	defer core.SetSkippedHook(core.SetSkippedHook(h))
	hooked := estimate(t, tg, in, m, true, words, workers, start, trials)
	lanes, faults, hits := h.Skipped()
	if hits != 0 || hooked != plain {
		t.Errorf("%s %+v K=%d workers=%d [%d, +%d): %d of %d skipped lanes (%d live faults) fail; queued lanes count %+v beside them, %+v alone",
			tg.Name, m, words, workers, start, trials, hits, lanes, faults, hooked.Bernoulli, plain.Bernoulli)
	}
	if lanes > int64(trials) {
		t.Errorf("%s %+v: %d skipped lanes drawn for %d trials", tg.Name, m, lanes, trials)
	}
	return plain
}

// compactTargets are the targets of the compaction checks, with d = 1
// (level-0 gadget, 1D cycle), 2 (level-1 gadget, 2D cycle, adder module)
// and 3 (level-2 gadget).
func compactTargets() []struct {
	t  core.Target
	in core.Input
} {
	adderT, adderIn := adderTarget()
	return []struct {
		t  core.Target
		in core.Input
	}{
		{core.NewGadget(gate.MAJ, 0).Target, core.Uniform},
		{core.NewGadget(gate.MAJ, 1).Target, core.Uniform},
		{core.NewGadget(gate.MAJ, 2).Target, core.Uniform},
		{lattice.NewCycle1D(gate.MAJ).Target, core.Uniform},
		{lattice.NewCycle2D(gate.MAJ).Target, core.Uniform},
		{adderT, adderIn},
	}
}

// compactModels run light enough to skip most lanes (ρ/2), with two
// samplers, with unsampled inits, and heavy enough to fill the queue's
// fault buffer mid-block.
var compactModels = []noise.Model{noise.Uniform(0.00303), noise.IID{Gate: 0.02, Init: 0.05}, noise.PerfectInit(0.04), noise.Uniform(0.2)}

// TestCompactedMatchesWalkAll: on every certified d, model, K and worker
// count, from a nonzero start and with a partial final block, no lane a
// compacted batch skips fails when walked (checkSkippedLanes), and the
// compacted estimate is the same at every K and worker count: it draws
// each block's lanes once, whatever the width of the walk. The compacted
// and walk-every-lane paths draw different streams, so their agreement
// is statistical (TestCompactedAgreesWithWalkAll).
func TestCompactedMatchesWalkAll(t *testing.T) {
	const start, trials = 2 * sim.BlockTrials, 3*sim.BlockTrials + 77
	for _, tg := range compactTargets() {
		for _, m := range compactModels {
			var first sim.Result
			for _, words := range []int{1, 4, 8} {
				for _, workers := range []int{1, 2} {
					res := checkSkippedLanes(t, tg.t, tg.in, m, words, workers, start, trials)
					if words == 1 && workers == 1 {
						first = res
					} else if res != first {
						t.Errorf("%s %+v: compacted %+v at K=%d workers=%d, %+v at K=1 workers=1",
							tg.t.Name, m, res.Bernoulli, words, workers, first.Bernoulli)
					}
				}
			}
		}
	}
}

// TestCompactedAgreesWithWalkAll: compacted estimates agree with
// walk-every-lane estimates of the same target and model, 2^17 trials
// each, within |z| ≤ 4 on the two-sample binomial statistic (two-sided
// tail 6.3e-5 per pair, about 1.5e-3 over the 24 pairs).
func TestCompactedAgreesWithWalkAll(t *testing.T) {
	if testing.Short() {
		t.Skip("48 estimates of 2^17 trials")
	}
	const trials = 1 << 17
	for _, tg := range compactTargets() {
		for _, m := range compactModels {
			all := estimate(t, tg.t, tg.in, m, false, 8, 2, 0, trials)
			compact := estimate(t, tg.t, tg.in, m, true, 8, 2, 0, trials)
			a, c := float64(all.Successes), float64(compact.Successes)
			pool := (a + c) / (2 * trials)
			z := 0.0
			if pool > 0 && pool < 1 {
				z = (c - a) / trials / math.Sqrt(pool*(1-pool)*2/trials)
			}
			t.Logf("%s %+v: compacted %v, walking every lane %v: z = %.2f", tg.t.Name, m, compact.Bernoulli, all.Bernoulli, z)
			if math.Abs(z) > 4 {
				t.Errorf("%s %+v: compacted %v, walking every lane %v: z = %.2f", tg.t.Name, m, compact.Bernoulli, all.Bernoulli, z)
			}
		}
	}
}

// TestCompactedAllocationsFlat: a compacted level-2 estimate allocates
// the same for 64 blocks as for one, so a steady-state compacted batch
// allocates nothing.
func TestCompactedAllocationsFlat(t *testing.T) {
	defer core.SetCompactBelow(core.SetCompactBelow(2))
	g := core.NewGadget(gate.MAJ, 2)
	m := noise.Uniform(0.002)
	allocs := func(blocks int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := g.Estimate(context.Background(), core.Uniform, core.Noisy(m), 8, 0, blocks*sim.BlockTrials, 1, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(64); many != one {
		t.Errorf("64 compacted blocks allocate %v times, one block %v", many, one)
	}
}

// BenchmarkCompactCrossover measures lanes512 ns/trial walking every
// lane and compacting, on the level-1 gadget (d = 2) and the level-2
// gadget (d = 3) across g where the two paths cross; walked/lane is the
// program's expected walked share at the certified d, the quantity
// compaction is chosen by. Run it with `go test ./internal/core -run '^$'
// -bench CompactCrossover -cpu 1`, each (g, path) in its own invocation
// when comparing paths on a noisy host.
func BenchmarkCompactCrossover(b *testing.B) {
	for _, c := range []struct {
		level int
		gs    []float64
	}{
		{1, []float64{0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.05}},
		{2, []float64{0.003, 0.004, 0.0045, 0.005, 0.0055, 0.006, 0.007}},
	} {
		g := core.NewGadget(gate.MAJ, c.level)
		d := core.Certify(g.Target, core.Uniform, core.PairBudget)
		for _, p := range c.gs {
			m := noise.Uniform(p)
			f := g.CompileWide(m, 8).WalkedFraction(d)
			for _, mode := range []struct {
				name  string
				below float64
			}{{"all", -1}, {"compact", 2}} {
				b.Run(fmt.Sprintf("L%d/g=%g/%s", c.level, p, mode.name), func(b *testing.B) {
					defer core.SetCompactBelow(core.SetCompactBelow(mode.below))
					if _, err := g.Estimate(context.Background(), core.Uniform, core.Noisy(m), 8, 0, sim.BlockTrials, 1, 1); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					if _, err := g.Estimate(context.Background(), core.Uniform, core.Noisy(m), 8, 0, b.N, 1, 1); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(f, "walked/lane")
				})
			}
		}
	}
}

// TestWalkedCounter: lanes.walked counts the lane slots walked, every
// slot when a batch walks every lane, and on the level-2 gadget at ρ/10
// about the program's expected walked share at d = 3, 0.6%.
func TestWalkedCounter(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 2)
	m := noise.Uniform(0.000606)
	counters := func(below float64) (walked, slots int64) {
		defer core.SetCompactBelow(core.SetCompactBelow(below))
		reg := telemetry.New()
		ctx := telemetry.NewContext(context.Background(), reg)
		if _, err := g.Estimate(ctx, core.Uniform, core.Noisy(m), 8, 0, 1024*sim.BlockTrials+5, 1, 1); err != nil {
			t.Fatal(err)
		}
		c := reg.Snapshot().Counters
		return c["lanes.walked"], c["lanes.slots"]
	}
	if walked, slots := counters(-1); walked != slots || slots != 1025*sim.BlockTrials {
		t.Errorf("walking every lane: lanes.walked %d, lanes.slots %d; want both %d", walked, slots, 1025*sim.BlockTrials)
	}
	want := g.CompileWide(m, 8).WalkedFraction(3)
	if walked, slots := counters(2); float64(walked) > 1.5*want*float64(slots) || walked == 0 {
		t.Errorf("compacted: lanes.walked %d of %d slots, want about %.3f of them", walked, slots, want)
	}
}

// TestSharedAuditConcurrent: copies of one target share its lane audit,
// so concurrent first estimates on them race to compute it; each must
// count what a lone estimate counts.
func TestSharedAuditConcurrent(t *testing.T) {
	m := noise.Uniform(0.002)
	want, err := core.NewGadget(gate.MAJ, 1).Estimate(context.Background(), core.Uniform, core.Noisy(m), 8, 0, 4*sim.BlockTrials, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGadget(gate.MAJ, 1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(tg core.Target) {
			defer wg.Done()
			got, err := tg.Estimate(context.Background(), core.Uniform, core.Noisy(m), 8, 0, 4*sim.BlockTrials, 1, 9)
			if err != nil || got != want {
				t.Errorf("concurrent estimate %+v, err %v; alone %+v", got.Bernoulli, err, want.Bernoulli)
			}
		}(g.Target)
	}
	wg.Wait()
}

// TestCompactedEstimatesReuseBuffers: a target's estimates hand their
// compacting batches' fault buffers on to the next estimate, so repeated
// estimates (an adaptive sweep's chunks) keep one set per worker and
// count what estimates on a fresh target count.
func TestCompactedEstimatesReuseBuffers(t *testing.T) {
	defer core.SetCompactBelow(core.SetCompactBelow(2))
	m := noise.Uniform(0.002)
	g := core.NewGadget(gate.MAJ, 2)
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{2, 1} {
			seed := uint64(10*rep + workers)
			got, err := g.Estimate(context.Background(), core.Uniform, core.Noisy(m), 8, 0, 4*sim.BlockTrials, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.NewGadget(gate.MAJ, 2).Estimate(context.Background(), core.Uniform, core.Noisy(m), 8, 0, 4*sim.BlockTrials, workers, seed)
			if err != nil || got != want {
				t.Errorf("estimate %d at %d workers: %+v, fresh target %+v (err %v)", rep, workers, got.Bernoulli, want.Bernoulli, err)
			}
			if n := core.SpareLaneBuffers(g.Target); n != 2 {
				t.Errorf("estimate %d at %d workers: target keeps %d buffer sets, want 2", rep, workers, n)
			}
		}
	}
}

// TestEstimatesReuseProgram: a target compiles its lane program once per
// model and width and keeps it for later estimates (models whose
// probabilities clamp alike share one, NaN included), a new model or
// width replaces it, and estimates count what estimates on a fresh
// target count.
func TestEstimatesReuseProgram(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 2)
	estimate := func(tg core.Target, m noise.Model, words int) sim.Result {
		t.Helper()
		res, err := tg.Estimate(context.Background(), core.Uniform, core.Noisy(m), words, 0, 2*sim.BlockTrials, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	steps := []struct {
		m     noise.Model
		words int
		reuse bool // the step runs the previous step's program
	}{
		{noise.Uniform(0.002), 8, false},
		{noise.Uniform(0.002), 8, true},
		{noise.IID{Gate: 0.002, Init: 0.002}, 8, true},
		{noise.Uniform(0.002), 4, false},
		{noise.Uniform(math.NaN()), 8, false},
		{noise.Uniform(0), 8, true},
		{noise.Uniform(-1), 8, true},
		{noise.Uniform(0.003), 8, false},
	}
	var prev *lanes.WideProgram
	for i, s := range steps {
		if got, want := estimate(g.Target, s.m, s.words), estimate(core.NewGadget(gate.MAJ, 2).Target, s.m, s.words); got != want {
			t.Errorf("step %d: %+v, fresh target %+v", i, got.Bernoulli, want.Bernoulli)
		}
		p := core.CachedProgram(g.Target)
		if p == nil {
			t.Fatalf("step %d (%+v, K=%d): target keeps no program", i, s.m, s.words)
		}
		if (p == prev) != s.reuse {
			t.Errorf("step %d (%+v, K=%d): reused the previous program %v, want %v", i, s.m, s.words, p == prev, s.reuse)
		}
		prev = p
	}
	if a, b := core.LaneProgram(g.Target, noise.Uniform(0.004), 8), core.LaneProgram(g.Target, noise.Uniform(0.004), 8); a != b {
		t.Error("the same model and width gave two programs")
	}
}
