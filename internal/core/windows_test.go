package core_test

import (
	"context"
	"sort"
	"testing"

	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/telemetry"
)

// laneRunner batches single lanes, each an input and a fault plan, through
// InjectedWide and hands each lane's outcome to the callback it was added
// with: whether it fails, and its decoded wires' values, Out wire k in
// bit k.
type laneRunner struct {
	tg   core.Target
	prog *lanes.WideProgram
	run  func(in []uint64, plan []lanes.Fault) []uint64
	st   lanes.WideState
	ins  []uint64
	plan []lanes.Fault
	done []func(fail bool, out uint64)
}

func newLaneRunner(tg core.Target, prog *lanes.WideProgram) *laneRunner {
	return &laneRunner{tg: tg, prog: prog, run: tg.InjectedWide(prog), st: lanes.NewWideState(tg.Circuit.Width(), prog.Words())}
}

// add queues one lane with input x and the given faults, Lane unset.
func (r *laneRunner) add(x uint64, faults []lanes.Fault, done func(fail bool, out uint64)) {
	for _, f := range faults {
		f.Lane = uint16(len(r.ins))
		r.plan = append(r.plan, f)
	}
	r.ins, r.done = append(r.ins, x), append(r.done, done)
	if len(r.ins) == r.prog.Lanes() {
		r.flush()
	}
}

func (r *laneRunner) flush() {
	if len(r.ins) == 0 {
		return
	}
	sort.SliceStable(r.plan, func(a, b int) bool { return r.plan[a].Point < r.plan[b].Point })
	fail := r.run(r.ins, r.plan)
	// The same lanes again, keeping the decoded wires.
	r.st.Reset()
	vals := make([]uint64, r.prog.Words())
	for o, wires := range r.tg.In {
		clear(vals)
		for j, x := range r.ins {
			vals[j>>6] |= (x >> uint(o) & 1) << uint(j&63)
		}
		r.st.EncodeBlock(wires, vals)
	}
	r.prog.RunPlan(r.st, r.plan)
	var outs []int
	for _, wires := range r.tg.Out {
		outs = append(outs, wires...)
	}
	for j, done := range r.done {
		var out uint64
		for k, w := range outs {
			out |= (r.st.Wire(w)[j>>6] >> uint(j&63) & 1) << uint(k)
		}
		done(fail[j>>6]>>uint(j&63)&1 == 1, out)
	}
	r.ins, r.plan, r.done = r.ins[:0], r.plan[:0], r.done[:0]
}

// TestAbsorptionWindows: the pair stage's absorption windows are what
// compacting batches drop faults by, so they are checked by brute force
// on the lane engine. For a fault on live point i with value v on input
// x, every later live point j at or past its window and every value of
// j, the pair {i, j} must fail exactly when {j} alone does, and leave
// every decoded wire as {j} alone does (the window's claim: past it, the
// first fault has left no trace on a live wire). Every (i, v, x) of the
// recovery, the level-1 gadget and the 2D cycle is checked, and a seeded
// sample of the level-2 gadget's. Each target must have windows that end
// before the circuit does past the faulted op, so that the check can
// fail.
func TestAbsorptionWindows(t *testing.T) {
	cases := []struct {
		t      core.Target
		sample int // 0: every (i, v, x)
	}{
		{recoveryTarget(), 0},
		{core.NewGadget(gate.MAJ, 1).Target, 0},
		{lattice.NewCycle2D(gate.MAJ).Target, 0},
		{core.NewGadget(gate.MAJ, 2).Target, 400},
	}
	r := rng.New(31)
	for _, tc := range cases {
		tg := tc.t
		window, ok := core.Windows(tg, core.Uniform)
		if !ok {
			t.Fatalf("%s: no windows", tg.Name)
		}
		prog := tg.CompileWide(noise.Uniform(0), 8)
		run := newLaneRunner(tg, prog)
		n, nin := tg.Circuit.Len(), uint64(1)<<uint(len(tg.In))
		values := func(pt int) uint64 { return 1 << uint(tg.Circuit.Op(pt).Kind.Arity()) }
		var live []int
		for pt := 0; pt < n; pt++ {
			if prog.Live(pt) {
				live = append(live, pt)
			}
		}
		// single[pt][v][x]: the fault alone's outcome.
		type outcome struct {
			fail bool
			out  uint64
		}
		single := make([][][]outcome, n)
		for _, pt := range live {
			single[pt] = make([][]outcome, values(pt))
			for v := range single[pt] {
				single[pt][v] = make([]outcome, nin)
				for x := uint64(0); x < nin; x++ {
					f := lanes.Fault{Point: int32(pt), Bits: prog.FaultBits(pt, uint64(v))}
					run.add(x, []lanes.Fault{f}, func(fail bool, out uint64) { single[pt][v][x] = outcome{fail, out} })
				}
			}
		}
		run.flush()
		type fault struct {
			pt   int
			v, x uint64
		}
		var firsts []fault
		for _, pt := range live {
			for v := uint64(0); v < values(pt); v++ {
				for x := uint64(0); x < nin; x++ {
					firsts = append(firsts, fault{pt, v, x})
				}
			}
		}
		if tc.sample > 0 {
			var sample []fault
			for _, k := range r.Perm(len(firsts))[:tc.sample] {
				sample = append(sample, firsts[k])
			}
			firsts = sample
		}
		pairs, closed, bad := 0, 0, 0
		for _, f := range firsts {
			w := window(f.pt, prog.FaultBits(f.pt, f.v), f.x)
			if w < f.pt || w > n {
				t.Fatalf("%s: fault (%d, %d) on input %d has window %d", tg.Name, f.pt, f.v, f.x, w)
			}
			if w > f.pt && w < n {
				closed++
			}
			first := lanes.Fault{Point: int32(f.pt), Bits: prog.FaultBits(f.pt, f.v)}
			for _, j := range live {
				if j <= f.pt || j < w {
					continue
				}
				for v := uint64(0); v < values(j); v++ {
					pairs++
					f, j, v := f, j, v
					second := lanes.Fault{Point: int32(j), Bits: prog.FaultBits(j, v)}
					run.add(f.x, []lanes.Fault{first, second}, func(fail bool, out uint64) {
						if alone := single[j][v][f.x]; (fail != alone.fail || out != alone.out) && bad < 10 {
							bad++
							t.Errorf("%s: fault (%d, %d) on input %d has window %d, yet with (%d, %d) it fails %v, decoded wires %b, and (%d, %d) alone %v, %b",
								tg.Name, f.pt, f.v, f.x, w, j, v, fail, out, j, v, alone.fail, alone.out)
						}
					})
				}
			}
		}
		run.flush()
		t.Logf("%s: %d first faults, %d with a window inside the circuit, %d pairs past a window", tg.Name, len(firsts), closed, pairs)
		if closed == 0 || pairs == 0 {
			t.Errorf("%s: %d windows inside the circuit, %d pairs checked; the check cannot fail", tg.Name, closed, pairs)
		}
	}
}

// TestAbsorbedLanesSound is the windows' soundness end to end on the
// level-2 gadget, at the threshold sweep's ρ/2 and at g = 0.03, where
// compaction is forced and walked lanes fail often: with the skipped
// lanes hook, every drawn lane the windows certify is walked with all its
// faults beside the queued ones. None may fail, the estimate must be the
// one without the hook, and the lanes the hook walked must be the ones
// lanes.absorbed counts.
func TestAbsorbedLanesSound(t *testing.T) {
	defer core.SetCompactBelow(core.SetCompactBelow(2))
	g := core.NewGadget(gate.MAJ, 2).Target
	for _, m := range []noise.Model{noise.Uniform(0.00303), noise.Uniform(0.03)} {
		const trials = 1 << 18
		reg := telemetry.New()
		plain, err := g.Estimate(telemetry.NewContext(context.Background(), reg), core.Uniform, core.Noisy(m), 8, 0, trials, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		h := &core.SkippedLanes{}
		old := core.SetSkippedHook(h)
		hooked, err := g.Estimate(context.Background(), core.Uniform, core.Noisy(m), 8, 0, trials, 2, 5)
		core.SetSkippedHook(old)
		if err != nil {
			t.Fatal(err)
		}
		skipped, _, hits := h.Skipped()
		absorbed, counted := h.Absorbed(), reg.Counter("lanes.absorbed").Load()
		t.Logf("%+v: %d absorbed lanes and %d skipped ones walked, %d fail; estimate %v", m, absorbed, skipped, hits, plain.Bernoulli)
		if hits != 0 || hooked != plain {
			t.Errorf("%+v: %d of %d absorbed and %d skipped lanes fail; the estimate reads %v beside them, %v alone",
				m, hits, absorbed, skipped, hooked.Bernoulli, plain.Bernoulli)
		}
		if absorbed == 0 || absorbed != counted {
			t.Errorf("%+v: the hook walked %d absorbed lanes, lanes.absorbed counts %d; want equal and nonzero", m, absorbed, counted)
		}
	}
}
