// Command revft-verify runs the reproduction's exhaustive, deterministic
// verification suite — the checks that hold with certainty rather than
// statistically — and prints a PASS/FAIL report:
//
//   - Table 1 and the Figure 1 decomposition, with BFS optimality;
//   - exhaustive single-fault tolerance of the Figure 2 recovery, the
//     Figure 7 1D recovery, the complete level-1 logical gate, and
//     multi-cycle storage;
//   - locality of every near-neighbor circuit, and the exact schedule
//     counts of §3.1–3.2;
//   - the fault audits of the three local cycles (perpendicular 2D clean;
//     parallel 2D and 1D failing only on data-crossing routing ops);
//   - footnote 4's entropy values (3/2 bits via MAJ⁻¹, 2 bits via Toffoli).
//
// Two flags extend the suite beyond the seed checks:
//
//	-exact         add the fault-enumeration oracle checks: full enumeration
//	               of the Figure 2 recovery (A₀ = A₁ = 0 proven over all
//	               2·9⁸ fault patterns, A₂ pinned to the exact rational
//	               71/32), the level-1 gadget's A₂ against the independent
//	               pair enumeration and against Eq. 1's 3·C(G,2) bound, and
//	               a closed-form NOT-chain cross-check
//	-differential  run every Monte Carlo engine (scalar, and the lane
//	               engine at 64, 256 and 512 lanes: lanes, lanes256,
//	               lanes512) against the
//	               oracle's exact P(ε) on the recovery, the level-1 MAJ
//	               gadget and the 2D and 1D local cycles, failing if any
//	               estimate's 3σ Wilson interval misses the exact value;
//	               -trials, -workers, and -seed control the runs
//	-trace f.jsonl write a JSONL event stream: a manifest header, one event
//	               per check, one per (ε, engine) differential verdict, and
//	               a closing summary
//
// A third mode audits a result cache instead of running the suite:
//
//	-cache dir     re-hash every entry of the content-addressed result
//	               cache at dir (as written by revft-server and revft-mc
//	               -cache) and print a PASS/FAIL line per entry; tampered,
//	               truncated, or misfiled entries are reported with their
//	               recorded and recomputed digests
//
// Exit status is nonzero if any check fails or any cache entry is corrupt.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/big"
	"os"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/code"
	"revft/internal/cooling"
	"revft/internal/core"
	"revft/internal/exact"
	"revft/internal/exp"
	"revft/internal/gate"
	"revft/internal/irrev"
	"revft/internal/lattice"
	"revft/internal/resultcache"
	"revft/internal/synth"
	"revft/internal/telemetry"
	"revft/internal/threshold"
)

type check struct {
	name string
	run  func() error
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "revft-verify:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("revft-verify", flag.ContinueOnError)
	var (
		exactMode    = fs.Bool("exact", false, "add the exhaustive fault-enumeration oracle checks")
		differential = fs.Bool("differential", false, "verify every Monte Carlo engine (scalar, lanes, lanes256, lanes512) against the exact oracle on the recovery, the level-1 gadget and both local cycles (3σ Wilson)")
		trials       = fs.Int("trials", 200000, "Monte Carlo trials per (ε, engine) differential point")
		workers      = fs.Int("workers", 0, "parallel workers for the differential runs (0 = GOMAXPROCS)")
		seed         = fs.Uint64("seed", 7, "base random seed for the differential runs")
		traceFile    = fs.String("trace", "", "write a JSONL event trace (manifest, per-check and per-verdict events) to this file")
		cacheAudit   = fs.String("cache", "", "audit the content-addressed result cache at this directory (re-hash every entry) instead of running the verification suite")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: need at least 1", *trials)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: need 0 (= GOMAXPROCS) or more", *workers)
	}

	var tr *telemetry.Trace
	var ft *telemetry.FileTrace
	if *traceFile != "" {
		man := telemetry.Collect("revft-verify")
		man.Seed = *seed
		man.Trials = *trials
		man.Workers = *workers
		var err error
		// The crash-safe trace writer: a failing disk degrades the trace
		// to counted drops instead of failing the verification run.
		ft, err = telemetry.NewTraceFile(*traceFile, man, telemetry.FileTraceOptions{Warn: os.Stderr})
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		defer func() {
			if cerr := ft.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "revft-verify: close trace %s: %v\n", *traceFile, cerr)
			}
		}()
		tr = ft.Trace
	}

	if *cacheAudit != "" {
		return auditCache(*cacheAudit, tr)
	}

	cs := checks()
	if *exactMode {
		cs = append(cs, exactChecks()...)
	}
	failed := 0
	for _, c := range cs {
		err := c.run()
		if tr != nil {
			fields := map[string]any{"name": c.name, "ok": err == nil}
			if err != nil {
				fields["error"] = err.Error()
			}
			tr.Emit("check", fields)
		}
		if err != nil {
			fmt.Printf("FAIL  %-58s %v\n", c.name, err)
			failed++
		} else {
			fmt.Printf("PASS  %s\n", c.name)
		}
	}
	if *differential {
		bad, err := runDifferential(exp.MCParams{Trials: *trials, Workers: *workers, Seed: *seed}, tr)
		if err != nil {
			return err
		}
		failed += bad
	}
	if tr != nil {
		tr.Emit("run_done", map[string]any{"ok": failed == 0, "failed": failed})
		if err := tr.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "revft-verify: trace %s: %v\n", *traceFile, err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d check(s) failed", failed)
	}
	fmt.Println("\nall checks passed")
	return nil
}

// auditCache re-hashes every entry of the result cache at dir and prints
// one PASS/FAIL line per entry — the offline counterpart of the server's
// per-read verification. The walk itself failing (unreadable directory)
// is an error; corrupt entries are reported and counted, and any makes
// the exit status nonzero.
func auditCache(dir string, tr *telemetry.Trace) error {
	rep, err := (&resultcache.Store{Dir: dir}).Audit()
	if err != nil {
		return fmt.Errorf("cache audit: %w", err)
	}
	for _, e := range rep.Entries {
		if tr != nil {
			fields := map[string]any{"path": e.Path, "digest": e.SpecDigest, "ok": e.OK}
			if !e.OK {
				fields["reason"] = e.Reason
				fields["error"] = e.Error
			}
			tr.Emit("cache_entry", fields)
		}
		if e.OK {
			fmt.Printf("PASS  cache entry %.12s  %s (%d bytes)\n", e.SpecDigest, e.Experiment, e.Size)
		} else {
			fmt.Printf("FAIL  cache entry %.12s  [%s] %v\n", e.SpecDigest, e.Reason, e.Error)
		}
	}
	if tr != nil {
		tr.Emit("run_done", map[string]any{"ok": rep.Corrupt == 0, "entries": len(rep.Entries), "corrupt": rep.Corrupt})
	}
	if rep.Corrupt > 0 {
		return fmt.Errorf("cache %s: %d of %d entries corrupt", dir, rep.Corrupt, rep.OK+rep.Corrupt)
	}
	fmt.Printf("\ncache %s: all %d entries verified\n", dir, rep.OK)
	return nil
}

// exactChecks are the fault-enumeration oracle checks behind -exact: the
// deterministic, exhaustive claims about the fault polynomial itself.
func exactChecks() []check {
	return []check{
		{"Oracle: recovery full enumeration — A₁ = 0, A₂ = 71/32 exactly", checkOracleRecovery},
		{"Oracle: gadget A₂ matches pair enumeration, ≤ 3·C(G,2)", checkOracleGadget},
		{"Oracle: NOT-chain matches closed form (1−(1−ε)^N)/2", checkOracleNOTChain},
	}
}

// checkOracleRecovery runs the full 2·9⁸-leaf enumeration of the Figure 2
// recovery: every fault pattern of every weight, exactly once. A₀ = A₁ = 0
// is the exhaustive single-fault-tolerance proof; A₂ is pinned to the exact
// rational the oracle extracts, and stays under Eq. 1's all-pairs bound.
func checkOracleRecovery() error {
	p, err := exact.Enumerate(exact.Recovery(), exact.Options{})
	if err != nil {
		return err
	}
	if !p.SingleFaultTolerant() {
		return fmt.Errorf("%d zero-fault and %d single-fault failure patterns",
			p.FailurePatterns(0), p.FailurePatterns(1))
	}
	if got, want := p.Coeff(2), big.NewRat(71, 32); got.Cmp(want) != 0 {
		return fmt.Errorf("A₂ = %v, want %v", got, want)
	}
	if bound := 3 * threshold.Choose(core.RecoveryOps, 2); p.CoeffFloat(2) > bound {
		return fmt.Errorf("A₂ = %v exceeds 3·C(%d,2) = %v", p.CoeffFloat(2), core.RecoveryOps, bound)
	}
	return nil
}

// checkOracleGadget cross-validates the oracle's weight-2 coefficient of
// the complete level-1 MAJ gadget against core.QuadraticCoefficient — an
// independent pair-enumeration that shares no code with the oracle's DFS —
// and against the paper's 3·C(G,2) relaxation.
func checkOracleGadget() error {
	g := core.NewGadget(gate.MAJ, 1)
	p, err := exact.Enumerate(exact.Gadget(g), exact.Options{MaxWeight: 2})
	if err != nil {
		return err
	}
	if !p.SingleFaultTolerant() {
		return fmt.Errorf("%d zero-fault and %d single-fault failure patterns",
			p.FailurePatterns(0), p.FailurePatterns(1))
	}
	c2 := g.QuadraticCoefficient()
	if got := p.CoeffFloat(2); math.Abs(got-c2) > 1e-9 {
		return fmt.Errorf("oracle A₂ = %v, pair enumeration c₂ = %v", got, c2)
	}
	if bound := 3 * threshold.Choose(threshold.GNonLocalInit, 2); p.CoeffFloat(2) > bound {
		return fmt.Errorf("A₂ = %v exceeds 3·C(G,2) = %v", p.CoeffFloat(2), bound)
	}
	return nil
}

// checkOracleNOTChain pins the oracle against a closed form derivable by
// hand: in a chain of N NOTs on one wire only the last fault survives, and
// it is wrong with probability 1/2, so P(ε) = (1 − (1−ε)^N)/2.
func checkOracleNOTChain() error {
	const n = 6
	c := circuit.New(1)
	for i := 0; i < n; i++ {
		c.NOT(0)
	}
	p, err := exact.Enumerate(core.Plain("not-chain", c), exact.Options{})
	if err != nil {
		return err
	}
	for _, eps := range []float64{0, 1e-3, 0.1, 0.5, 1} {
		want := (1 - math.Pow(1-eps, n)) / 2
		if got := p.Eval(eps); math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("P(%v) = %v, want %v", eps, got, want)
		}
	}
	return nil
}

// runDifferential checks every Monte Carlo engine — scalar and the lane
// engine at 64, 256 and 512 lanes — against the oracle on four targets: the recovery with its fully enumerated polynomial, the
// level-1 MAJ gadget with a weight-3 truncation, and the 2D and 1D local
// cycles with weight-2 truncations, whose tail bounds widen the
// acceptance interval. It prints the verdict tables and returns the
// number of (ε, engine) disagreements.
func runDifferential(p exp.MCParams, tr *telemetry.Trace) (int, error) {
	fmt.Println()
	bad := 0
	runs := []struct {
		target core.Target
		opts   exact.Options
		eps    []float64
	}{
		{exact.Recovery(), exact.Options{}, []float64{1e-3, 1e-2, 5e-2, 0.2}},
		{exact.Gadget(core.NewGadget(gate.MAJ, 1)), exact.Options{MaxWeight: 3}, []float64{1e-3, 3e-3, 1e-2}},
		{lattice.NewCycle2D(gate.MAJ).Target, exact.Options{MaxWeight: 2}, []float64{1e-3, 3e-3}},
		{lattice.NewCycle1D(gate.MAJ).Target, exact.Options{MaxWeight: 2}, []float64{1e-3, 3e-3}},
	}
	for i, r := range runs {
		poly, err := exact.Enumerate(r.target, r.opts)
		if err != nil {
			return bad, fmt.Errorf("%s: %w", r.target.Name, err)
		}
		pts, err := exp.Differential(context.Background(), r.target, poly, r.eps,
			exp.MCParams{Trials: p.Trials, Workers: p.Workers, Seed: p.Seed + uint64(1000*i)}, tr)
		if err != nil {
			return bad, fmt.Errorf("%s: %w", r.target.Name, err)
		}
		tab, n := exp.DifferentialTable(r.target, poly, pts)
		fmt.Println(tab.Format())
		bad += n
	}
	return bad, nil
}

func checks() []check {
	return []check{
		{"Table 1: MAJ truth table matches the paper", checkTable1},
		{"Figure 1: decomposition equivalent and BFS-optimal (3 gates)", checkFigure1},
		{"Figure 2: recovery single-fault tolerant (exhaustive)", tolerant(exact.Recovery())},
		{"Figure 2: recovery corrects any single input error", checkRecoveryCorrects},
		{"Figure 3: level-1 logical gate single-fault tolerant (exhaustive)", tolerant(core.NewGadget(gate.MAJ, 1).Target)},
		{"Figure 3: emitted gate counts equal Γ_L", checkBlowup},
		{"Storage: 3 recovery cycles single-fault tolerant (exhaustive)", tolerant(core.NewMemory(1, 3).Target())},
		{"Figure 4: 2D recovery fully local on the patch", checkRecovery2DLocal},
		{"Figure 7: 1D recovery local, 13 ops, 9 SWAPs", checkRecovery1D},
		{"Figure 7: 1D recovery single-fault tolerant (exhaustive)", tolerant(core.Target{
			Name:    "recovery1d",
			Circuit: lattice.Recovery1D(),
			In:      [][]int{lattice.Recovery1DDataWires},
			Out:     [][]int{lattice.Recovery1DOutputWires},
			Logical: circuit.New(1),
		})},
		{"§3.2: interleave schedule counts (45/24/12, movers 8+7+6, 10+8+6)", checkInterleaveCounts},
		{"§3: cycle audits — perpendicular 2D clean; 1D and parallel 2D fail only on crossings", checkCycleAudits},
		{"§3: per-codeword G = 40 for the 1D moving codeword", checkG40},
		{"Thresholds: all six published ρ values", checkThresholds},
		{"Table 2: hybrid ratios to two decimals", checkTable2},
		{"§2.3: worked example (L = 2, 441, 81)", checkWorkedExample},
		{"§4: footnote 4 — NAND at 3/2 bits via MAJ⁻¹, 2 bits via Toffoli", checkFootnote4},
		{"§4: paper example L ≤ 2.3 at g = 10⁻², E = 11", checkEntropyExample},
		{"Eq.1 looseness: exact two-fault c₂ ≪ 3·C(G,2), predicts MC crossover", checkPairAnalysis},
		{"Cooling: BCS boost (3δ−δ³)/2 reproduced by the circuit", checkCooling},
	}
}

// tolerant is the check that every single fault in t is corrected: the
// exhaustive audit of t, failing with its first failing fault.
func tolerant(t core.Target) func() error {
	return func() error {
		a := t.AuditSingleFaults()
		if a.Tolerant() {
			return nil
		}
		f := a.Failures[0]
		return fmt.Errorf("%d of %d single faults fail, first input %b, fault (op %d, val %03b)",
			len(a.Failures), a.Cases, f.Input, f.OpIndex, f.Value)
	}
}

func checkPairAnalysis() error {
	g := core.NewGadget(gate.MAJ, 1)
	c2 := g.QuadraticCoefficient()
	bound := 3 * threshold.Choose(threshold.GNonLocalInit, 2)
	if c2 <= 0 || c2 >= bound {
		return fmt.Errorf("c₂ = %v vs bound %v", c2, bound)
	}
	malignant, total := g.MalignantPairs()
	if malignant == 0 || malignant >= total/2 {
		return fmt.Errorf("malignant pairs %d of %d", malignant, total)
	}
	return nil
}

func checkCooling() error {
	c := cooling.BCS(0, 1, 2)
	for _, delta := range []float64{0.1, 0.5} {
		q := (1 + delta) / 2
		p0 := 0.0
		for in := uint64(0); in < 8; in++ {
			w := 1.0
			for b := 0; b < 3; b++ {
				if in>>uint(b)&1 == 0 {
					w *= q
				} else {
					w *= 1 - q
				}
			}
			if c.Eval(in)&1 == 0 {
				p0 += w
			}
		}
		if got, want := 2*p0-1, cooling.Boost(delta); math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("δ=%v: circuit %v vs formula %v", delta, got, want)
		}
	}
	return nil
}

func checkTable1() error {
	paper := map[uint64]uint64{
		0b000: 0b000, 0b100: 0b100, 0b010: 0b010, 0b110: 0b111,
		0b001: 0b110, 0b101: 0b011, 0b011: 0b101, 0b111: 0b001,
	}
	for in, want := range paper {
		if got := gate.MAJ.Eval(in); got != want {
			return fmt.Errorf("MAJ(%03b) = %03b, want %03b", in, got, want)
		}
	}
	return nil
}

func checkFigure1() error {
	dec := circuit.New(3).CNOT(0, 1).CNOT(0, 2).Toffoli(1, 2, 0)
	if !dec.EquivalentTo(circuit.New(3).MAJ(0, 1, 2)) {
		return fmt.Errorf("decomposition not equivalent to MAJ")
	}
	set := synth.Placements(gate.CNOT, gate.Toffoli)
	if n := synth.MinGateCount(synth.FromKind(gate.MAJ), set); n != 3 {
		return fmt.Errorf("BFS minimum = %d, want 3", n)
	}
	return nil
}

func checkRecoveryCorrects() error {
	c := core.Recovery()
	for _, v := range []bool{false, true} {
		for _, e := range core.RecoveryDataWires {
			st := bitvec.New(core.RecoveryWidth)
			code.EncodeInto(st, core.RecoveryDataWires, v, 1)
			st.Flip(e)
			c.Run(st)
			for _, w := range core.RecoveryOutputWires {
				if st.Get(w) != v {
					return fmt.Errorf("input error at %d not corrected", e)
				}
			}
		}
	}
	return nil
}

func checkBlowup() error {
	for level, want := range map[int]int{0: 1, 1: 27, 2: 729} {
		if got := core.NewGadget(gate.MAJ, level).Circuit.Len(); got != want {
			return fmt.Errorf("level %d: %d ops, want %d", level, got, want)
		}
	}
	return nil
}

func checkRecovery2DLocal() error {
	return lattice.CheckLocal(lattice.Recovery2D(), lattice.Patch2DLayout(), nil)
}

func checkRecovery1D() error {
	c := lattice.Recovery1D()
	if c.Len() != lattice.Recovery1DOps {
		return fmt.Errorf("ops = %d, want %d", c.Len(), lattice.Recovery1DOps)
	}
	if n := lattice.Recovery1DSwapCount(); n != 9 {
		return fmt.Errorf("swaps = %d, want 9", n)
	}
	return lattice.CheckLocal(c, lattice.Line{N: lattice.Recovery1DWidth}, lattice.InitExempt)
}

func checkInterleaveCounts() error {
	il := lattice.NewInterleave1D()
	if len(il.Swaps) != 45 {
		return fmt.Errorf("total swaps = %d", len(il.Swaps))
	}
	if n := il.SwapsTouching(2); n != 24 {
		return fmt.Errorf("moving codeword touched by %d swaps, want 24", n)
	}
	if n := il.OpsTouching(2); n != 12 {
		return fmt.Errorf("moving codeword SWAP3 ops = %d, want 12", n)
	}
	return nil
}

func checkCycleAudits() error {
	perp := lattice.NewCycle2D(gate.MAJ).AuditSingleFaults()
	if !perp.Tolerant() {
		return fmt.Errorf("perpendicular 2D cycle has %d failures", len(perp.Failures))
	}
	for _, mk := range []struct {
		name string
		c    *lattice.Cycle
	}{
		{"1D", lattice.NewCycle1D(gate.MAJ)},
		{"parallel 2D", lattice.NewCycle2DParallel(gate.MAJ)},
	} {
		audit := mk.c.AuditSingleFaults()
		if audit.Tolerant() {
			return fmt.Errorf("%s cycle unexpectedly clean — update EXPERIMENTS.md", mk.name)
		}
		crossing := mk.c.CrossingOps()
		for op := range audit.VulnerableOps {
			if !crossing[op] {
				return fmt.Errorf("%s: op %d vulnerable but not a routing crossing", mk.name, op)
			}
		}
	}
	return nil
}

func checkG40() error {
	c := lattice.NewCycle1D(gate.MAJ)
	if got := c.CountPerCodeword(2); got != threshold.G1DInit {
		return fmt.Errorf("per-codeword count = %d, want %d", got, threshold.G1DInit)
	}
	return nil
}

func checkThresholds() error {
	want := map[int]float64{11: 165, 9: 108, 16: 360, 14: 273, 40: 2340, 38: 2109}
	for g, denom := range want {
		rho, err := threshold.Threshold(g)
		if err != nil {
			return fmt.Errorf("G=%d: %v", g, err)
		}
		if got := 1 / rho; math.Abs(got-denom) > 1e-6 {
			return fmt.Errorf("G=%d: 1/ρ = %v, want %v", g, got, denom)
		}
	}
	return nil
}

func checkTable2() error {
	want := []float64{0.13, 0.36, 0.60, 0.77, 0.88, 0.94}
	for i, row := range threshold.Table2() {
		if math.Abs(row.Ratio-want[i]) > 0.005 {
			return fmt.Errorf("k=%d: ratio %v, want %v", row.K, row.Ratio, want[i])
		}
	}
	return nil
}

func checkWorkedExample() error {
	rho := threshold.MustThreshold(threshold.GNonLocal)
	l, err := threshold.RequiredLevels(1e6, rho/10, threshold.GNonLocal)
	if err != nil || l != 2 {
		return fmt.Errorf("RequiredLevels = %d, %v", l, err)
	}
	if g := threshold.GateBlowup(threshold.GNonLocal, 2); g != 441 {
		return fmt.Errorf("gate blowup %v, want 441", g)
	}
	if s := threshold.SizeBlowup(2); s != 81 {
		return fmt.Errorf("size blowup %v, want 81", s)
	}
	return nil
}

func checkFootnote4() error {
	maj := irrev.NANDViaMAJInv()
	tof := irrev.NANDViaToffoli()
	if !maj.Correct() || !tof.Correct() {
		return fmt.Errorf("a construction does not compute NAND")
	}
	if h := maj.GarbageEntropy(); math.Abs(h-1.5) > 1e-12 {
		return fmt.Errorf("MAJ⁻¹ garbage entropy %v, want 3/2", h)
	}
	if h := tof.GarbageEntropy(); math.Abs(h-2) > 1e-12 {
		return fmt.Errorf("Toffoli garbage entropy %v, want 2", h)
	}
	return nil
}

func checkEntropyExample() error {
	// entropy.MaxLevels(1e-2, 11) ≈ 2.317
	got := math.Log(1/1e-2)/math.Log(33) + 1
	if math.Abs(got-2.317) > 0.01 {
		return fmt.Errorf("max levels = %v", got)
	}
	return nil
}
