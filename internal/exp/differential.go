package exp

// Differential verification: the Monte Carlo engines against the exact
// fault-enumeration oracle. For a grid of ε values the harness runs every
// engine of the engine table — scalar, lanes, lanes256 and lanes512 — on
// the same core.Target and requires each estimate's 3σ Wilson interval
// to intersect the oracle's exact interval [P_W(ε), P_W(ε)+tail] — a
// point for full enumerations. The estimates come from
// Target.Estimate, the one estimator the sweeps, the ablations, the job
// server and the benchmark run, so a pass here checks the production code path, not a
// copy of it. One engine disagreeing fingers that engine; all disagreeing
// fingers the model or the oracle. revft-verify -differential
// and the exact-verify CI job run this on the recovery, the level-1
// gadget and both local cycles; the property tests in this package run
// it on random circuits.

import (
	"context"
	"fmt"

	"revft/internal/core"
	"revft/internal/exact"
	"revft/internal/noise"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// DifferentialZ is the Wilson z-value of the acceptance test: 3σ, the
// tolerance the CI job fixes. At z = 3 a correct engine is
// flagged on a given ε with probability ≈ 2.7e-3, and the check is
// deterministic for a fixed (seed, trials) at any worker count.
const DifferentialZ = 3.0

// DiffEngine is one engine's verdict at one ε: its estimate and whether
// its 3σ Wilson interval intersects the oracle's exact interval.
type DiffEngine struct {
	Name string
	Est  stats.Bernoulli
	OK   bool
}

// DiffPoint is the differential verdict at one ε: the oracle's exact
// interval and one verdict per engine, in the order the engines ran.
type DiffPoint struct {
	Eps              float64
	ExactLo, ExactHi float64
	Engines          []DiffEngine
}

// diffStride is how many seeds each ε reserves: engine j of the engine
// table runs point i on p.Seed + diffStride·i + j, one seed per engine,
// so no two (ε, engine) runs share a stream.
const diffStride = 4

// Differential runs the engines against poly at every ε in eps and
// returns the per-ε verdicts. poly must come from Enumerate on t (its
// SkipInit flag selects the matching noise accounting). Every engine of
// the engine table runs at every ε, in table order. Each (ε, engine)
// verdict is also emitted as a "differential" trace event when tr is
// non-nil. The run is cancellable; on cancellation the completed points
// are returned with the error.
func Differential(ctx context.Context, t core.Target, poly *exact.Poly, eps []float64, p MCParams, tr *telemetry.Trace) ([]DiffPoint, error) {
	var out []DiffPoint
	for i, e := range eps {
		run := core.Noisy(noise.Uniform(e))
		if poly.SkipInit {
			run = core.Noisy(noise.PerfectInit(e))
		}
		lo, hi := poly.Bounds(e)
		pt := DiffPoint{Eps: e, ExactLo: lo, ExactHi: hi}
		for j, eng := range engines {
			res, err := t.Estimate(ctx, core.Uniform, run, eng.words, 0, p.Trials, p.Workers, p.Seed+uint64(diffStride*i+j))
			v := DiffEngine{Name: eng.name, Est: res.Bernoulli, OK: overlapsExact(res.Bernoulli, lo, hi)}
			pt.Engines = append(pt.Engines, v)
			emitDifferential(tr, t.Name, pt, v)
			if err != nil {
				return append(out, pt), err
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// overlapsExact reports whether the estimate's 3σ Wilson interval
// intersects the oracle interval [lo, hi].
func overlapsExact(b stats.Bernoulli, lo, hi float64) bool {
	wlo, whi := b.Wilson(DifferentialZ)
	return whi >= lo && wlo <= hi
}

func emitDifferential(tr *telemetry.Trace, target string, pt DiffPoint, v DiffEngine) {
	if tr == nil {
		return
	}
	wlo, whi := v.Est.Wilson(DifferentialZ)
	tr.Emit("differential", map[string]any{
		"target": target, "engine": v.Name, "eps": pt.Eps,
		"trials": v.Est.Trials, "successes": v.Est.Successes,
		"wilson_lo": wlo, "wilson_hi": whi,
		"exact_lo": pt.ExactLo, "exact_hi": pt.ExactHi,
		"ok": v.OK,
	})
}

// DifferentialTable renders the verdicts, one column pair per engine,
// with one note per disagreement and the count of failing (ε, engine)
// checks in the returned int.
func DifferentialTable(t core.Target, poly *exact.Poly, pts []DiffPoint) (*Table, int) {
	kind := "exact"
	if !poly.Exact() {
		kind = fmt.Sprintf("weight ≤ %d of %d", poly.MaxWeight, poly.N)
	}
	header := []string{"eps", "exact P(eps)"}
	if len(pts) > 0 {
		for _, v := range pts[0].Engines {
			header = append(header, v.Name, v.Name+" ok")
		}
	}
	tab := &Table{
		ID:     "DIFF",
		Title:  fmt.Sprintf("Differential verification: %s vs exact P(ε) (%s), 3σ Wilson", t.Name, kind),
		Header: header,
	}
	bad := 0
	for _, pt := range pts {
		ex := fmt.Sprintf("%.4g", pt.ExactLo)
		if pt.ExactHi > pt.ExactLo {
			ex = fmt.Sprintf("[%.4g, %.4g]", pt.ExactLo, pt.ExactHi)
		}
		row := []any{pt.Eps, ex}
		for _, v := range pt.Engines {
			row = append(row, v.Est.Rate(), v.OK)
		}
		tab.AddRow(row...)
		for _, v := range pt.Engines {
			if !v.OK {
				bad++
				wlo, whi := v.Est.Wilson(DifferentialZ)
				tab.AddNote("DISAGREE at ε=%g: %s %d/%d → 3σ [%.4g, %.4g] misses exact [%.4g, %.4g]",
					pt.Eps, v.Name, v.Est.Successes, v.Est.Trials, wlo, whi, pt.ExactLo, pt.ExactHi)
			}
		}
	}
	if bad == 0 {
		a1 := "A1 = 0 proven exhaustively"
		if poly.FailurePatterns(1) != 0 {
			a1 = fmt.Sprintf("A1 = %v exactly", poly.Coeff(1).RatString())
		}
		tab.AddNote("every engine agrees with the oracle at every ε (%s; A2 = %.6g)", a1, poly.CoeffFloat(2))
	}
	return tab, bad
}
