package core_test

import (
	"context"
	"fmt"
	"math"
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

// TestLaneAuditMatchesAuditSingleFaults: the lane audit must report
// exactly the failing (input, op, value) triples of the scalar
// AuditSingleFaults, on clean targets and on the literal 1D cycle, which
// fails, and certify d = 2 on clean ones and d = 1 on the cycle.
func TestLaneAuditMatchesAuditSingleFaults(t *testing.T) {
	adderT, adderIn := adderTarget()
	cases := []struct {
		t  core.Target
		in core.Input
		d  int
	}{
		{recoveryTarget(), core.Uniform, 2},
		{core.NewGadget(gate.MAJ, 1).Target, core.Uniform, 2},
		{core.NewGadget(gate.MAJ, 2).Target, core.Uniform, 2},
		{lattice.NewCycle2D(gate.MAJ).Target, core.Uniform, 2},
		{lattice.NewCycle1D(gate.MAJ).Target, core.Uniform, 1},
		{adderT, adderIn, 2},
	}
	for _, tc := range cases {
		d, fails := core.LaneAudit(tc.t, tc.in, core.AuditBudget)
		if d != tc.d {
			t.Errorf("%s: d = %d, want %d", tc.t.Name, d, tc.d)
		}
		want := map[core.FaultCase]bool{}
		if tc.in == core.Uniform {
			for _, f := range tc.t.AuditSingleFaults().Failures {
				want[f] = true
			}
		} else {
			// AuditSingleFaults restricted to the one fixed input.
			x := adderX
			run := tc.t.Injected()
			sim.ForEachSingleFault(tc.t.Circuit, func(op int, v uint64) {
				if run(x, []int{op}, []uint64{v}) {
					want[core.FaultCase{Input: x, OpIndex: op, Value: v}] = true
				}
			})
		}
		got := map[core.FaultCase]bool{}
		for _, f := range fails {
			got[f] = true
			if !want[f] {
				t.Errorf("%s: lane audit fails %+v, the scalar audit does not", tc.t.Name, f)
			}
		}
		for f := range want {
			if !got[f] {
				t.Errorf("%s: scalar audit fails %+v, the lane audit does not", tc.t.Name, f)
			}
		}
		if tc.d == 1 && len(got) == 0 {
			t.Errorf("%s: no failing single fault; the check cannot fail", tc.t.Name)
		}
	}
}

// TestLaneAuditBudget: past its plan budget the audit settles for d = 1,
// and for d = 0 when even the noiseless runs exceed it.
func TestLaneAuditBudget(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 1).Target
	for budget, want := range map[int]int{core.AuditBudget: 2, 100: 1, 4: 0} {
		if d, _ := core.LaneAudit(g, core.Uniform, budget); d != want {
			t.Errorf("budget %d: d = %d, want %d", budget, d, want)
		}
	}
}

// TestMutatedGadgetLosesCertificate: the level-1 gadget without one of
// its transversal MAJs still decodes right noiselessly, but single
// faults break it, so its certificate drops to d = 1 and its lane
// estimates still equal the walk-every-lane ones.
func TestMutatedGadgetLosesCertificate(t *testing.T) {
	g := core.NewGadget(gate.MAJ, 1)
	c := circuit.New(g.Circuit.Width())
	for i, op := range g.Circuit.Ops() {
		if i != 0 {
			c.Append(op.Kind, op.Targets...)
		}
	}
	mut := core.Target{Name: "mutated", Circuit: c, In: g.In, Out: g.Out, Logical: g.Logical}
	if d, fails := core.LaneAudit(mut, core.Uniform, core.AuditBudget); d > 1 || len(fails) == 0 {
		t.Fatalf("mutated gadget: d = %d with %d failing single faults, want d ≤ 1", d, len(fails))
	}
	checkCompactedEqual(t, mut, core.Uniform, noise.Uniform(0.01), 8, 1, 0, 4*sim.BlockTrials)
}

// estimateBoth runs one lane estimate walking every lane and one
// compacting wherever the audit allows.
func estimateBoth(t *testing.T, tg core.Target, in core.Input, m noise.Model, words, workers, start, trials int) (all, compact sim.Result) {
	t.Helper()
	defer core.SetCompactBelow(core.SetCompactBelow(-1))
	var err error
	if all, err = tg.Estimate(context.Background(), in, core.Noisy(m), words, start, trials, workers, 5); err != nil {
		t.Fatal(err)
	}
	core.SetCompactBelow(2)
	if compact, err = tg.Estimate(context.Background(), in, core.Noisy(m), words, start, trials, workers, 5); err != nil {
		t.Fatal(err)
	}
	return all, compact
}

func checkCompactedEqual(t *testing.T, tg core.Target, in core.Input, m noise.Model, words, workers, start, trials int) {
	t.Helper()
	if all, compact := estimateBoth(t, tg, in, m, words, workers, start, trials); all != compact {
		t.Errorf("%s %+v K=%d workers=%d [%d, +%d): walking every lane %+v, compacted %+v",
			tg.Name, m, words, workers, start, trials, all.Bernoulli, compact.Bernoulli)
	}
}

// TestCompactedMatchesWalkAll: a compacted estimate must equal the
// walk-every-lane estimate exactly, on every certified d (3 on the
// level-2 gadget, at the threshold sweep's ρ/2 among others), at every K
// and worker count, from a nonzero start, with a partial final block,
// under noise light enough to skip most lanes and heavy enough to fill
// the queue's fault buffer mid-batch.
func TestCompactedMatchesWalkAll(t *testing.T) {
	adderT, adderIn := adderTarget()
	targets := []struct {
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
	models := []noise.Model{noise.Uniform(0.00303), noise.IID{Gate: 0.02, Init: 0.05}, noise.PerfectInit(0.04), noise.Uniform(0.2)}
	const start, trials = 2 * sim.BlockTrials, 3*sim.BlockTrials + 77
	for _, tg := range targets {
		for _, m := range models {
			for _, words := range []int{1, 4, 8} {
				for _, workers := range []int{1, 2} {
					checkCompactedEqual(t, tg.t, tg.in, m, words, workers, start, trials)
				}
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

// BenchmarkCompactCrossover measures lanes512 ns/trial on the level-2
// gadget walking every lane and compacting, across g around where the
// two cross; walked/lane is the program's expected walked fraction at the
// certified d (3), the quantity compaction is chosen by. Run it with
// `go test ./internal/core -run '^$' -bench CompactCrossover -cpu 1`.
func BenchmarkCompactCrossover(b *testing.B) {
	g := core.NewGadget(gate.MAJ, 2)
	d := core.Certify(g.Target, core.Uniform, core.PairBudget)
	for _, p := range []float64{0.0024, 0.003, 0.0034, 0.0038, 0.0042, 0.0046, 0.005, 0.0056} {
		m := noise.Uniform(p)
		f := g.CompileWide(m, 8).WalkedFraction(d)
		for _, mode := range []struct {
			name  string
			below float64
		}{{"all", -1}, {"compact", 2}} {
			b.Run(fmt.Sprintf("g=%g/%s", p, mode.name), func(b *testing.B) {
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
