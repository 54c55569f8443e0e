package exp

import (
	"context"
	"strings"
	"testing"

	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/exact"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
)

// TestLanesKernelsMatchScalarLaneForLane drives random circuits through
// the 64-lane word kernels noiselessly and compares every lane against
// the scalar table-driven evaluation — trial-for-trial bit equality, the
// strictest engine-equivalence statement short of noise.
func TestLanesKernelsMatchScalarLaneForLane(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		width := 1 + r.Intn(8)
		c := circuit.Random(r, width, 1+r.Intn(12), nil)
		prog := lanes.CompileWide(c, noise.Uniform(0), 1)
		st := lanes.NewWideState(width, 1)
		for w := range st.W {
			st.W[w] = r.Uint64()
		}
		orig := append([]uint64(nil), st.W...)
		prog.RunNoiseless(st)
		for lane := 0; lane < 64; lane++ {
			var in uint64
			for w := 0; w < width; w++ {
				in |= orig[w] >> uint(lane) & 1 << uint(w)
			}
			want := c.Eval(in)
			var got uint64
			for w := 0; w < width; w++ {
				got |= st.W[w] >> uint(lane) & 1 << uint(w)
			}
			if got != want {
				t.Fatalf("seed %d lane %d: in %0*b → lanes %0*b, scalar %0*b",
					seed, lane, width, in, width, got, width, want)
			}
		}
	}
}

// TestEnginesMatchExactOnRandomCircuits is the randomized differential
// property test: on circuits nobody hand-picked, every engine's estimate
// must land inside a generous Wilson interval of the oracle's exact
// failure probability. The trial count is deliberately not a multiple of
// 64 (or 256, or 512) so the lane engines' partial-batch tail masking
// is exercised every run; ε = 1 exercises the always-fault mask path.
func TestEnginesMatchExactOnRandomCircuits(t *testing.T) {
	const trials = 20011 // prime: every lane-engine run ends in a partial batch
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		width := 3 + r.Intn(3) // 3..5
		nops := 3 + r.Intn(3)  // 3..5
		c := circuit.Random(r, width, nops, nil)
		tgt := core.Plain("rand", c)
		poly, err := exact.Enumerate(tgt, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.05, 0.3, 1} {
			p := poly.Eval(eps)
			pts, err := Differential(context.Background(), tgt, poly,
				[]float64{eps}, MCParams{Trials: trials, Workers: 2, Seed: 100 * seed}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pt := pts[0]
			var names []string
			for _, e := range pt.Engines {
				names = append(names, e.Name)
				if e.Est.Trials != trials {
					t.Fatalf("seed %d: %s ran %d trials, want %d", seed, e.Name, e.Est.Trials, trials)
				}
				// z = 4 (≈6e-5 two-sided) keeps the deterministic seeds
				// far from the boundary while still detecting real
				// estimator bias.
				lo, hi := e.Est.Wilson(4)
				if p < lo || p > hi {
					t.Errorf("seed %d ε=%v %s: exact %v outside 4σ Wilson [%v, %v]",
						seed, eps, e.Name, p, lo, hi)
				}
			}
			if got, want := strings.Join(names, ","), strings.Join(EngineNames(), ","); got != want {
				t.Fatalf("seed %d: engines %s, want %s", seed, got, want)
			}
		}
	}
}

// TestDifferentialRecovery pins the full harness on the §2.2 recovery
// circuit: full enumeration, every engine, 3σ acceptance at every ε —
// engine estimates pinned to the oracle's exact values.
func TestDifferentialRecovery(t *testing.T) {
	if n := len(EngineNames()); n > diffStride {
		t.Fatalf("%d engines share a %d-seed stride: two (ε, engine) runs would share a stream", n, diffStride)
	}
	tgt := exact.Recovery()
	poly, err := exact.Enumerate(tgt, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !poly.SingleFaultTolerant() {
		t.Fatal("recovery lost single-fault tolerance")
	}
	pts, err := Differential(context.Background(), tgt, poly,
		[]float64{1e-2, 5e-2, 0.2}, MCParams{Trials: 50000, Workers: 2, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab, bad := DifferentialTable(tgt, poly, pts)
	if bad != 0 {
		t.Fatalf("%d differential disagreement(s):\n%s", bad, tab.Format())
	}
	for _, pt := range pts {
		if pt.ExactHi != pt.ExactLo {
			t.Fatalf("full enumeration returned a loose interval at ε=%v", pt.Eps)
		}
	}
}

// TestDifferentialGadgetTruncated covers the truncated-oracle path: the
// level-1 MAJ gadget enumerated to weight 3, where the acceptance interval
// [P_3, P_3+tail] absorbs the unenumerated mass.
func TestDifferentialGadgetTruncated(t *testing.T) {
	if testing.Short() {
		t.Skip("weight-3 gadget enumeration in -short mode")
	}
	tgt := exact.Gadget(core.NewGadget(gate.MAJ, 1))
	poly, err := exact.Enumerate(tgt, exact.Options{MaxWeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Differential(context.Background(), tgt, poly,
		[]float64{3e-3, 1e-2}, MCParams{Trials: 100000, Workers: 2, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := DifferentialTable(tgt, poly, pts); bad != 0 {
		t.Fatalf("%d disagreement(s) on the truncated gadget oracle", bad)
	}
}
