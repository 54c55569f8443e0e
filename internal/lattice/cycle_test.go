package lattice

import (
	"testing"

	"revft/internal/bitvec"
	"revft/internal/code"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/threshold"
)

// runCycleNoiseless encodes the packed logical input, runs the cycle
// noiselessly, and decodes the outputs.
func runCycleNoiseless(c *Cycle, in uint64) uint64 {
	st := bitvec.New(c.Circuit.Width())
	for i, wires := range c.In {
		code.EncodeInto(st, wires, in>>uint(i)&1 == 1, 1)
	}
	c.Circuit.Run(st)
	var out uint64
	for i, wires := range c.Out {
		if code.Decode(st, wires, 1) {
			out |= 1 << uint(i)
		}
	}
	return out
}

func testCycleSemantics(t *testing.T, c *Cycle) {
	t.Helper()
	for in := uint64(0); in < 8; in++ {
		if got, want := runCycleNoiseless(c, in), c.Kind.Eval(in); got != want {
			t.Fatalf("%s cycle(%03b) = %03b, want %03b", c.Kind, in, got, want)
		}
	}
}

func testCycleOutputsAreCleanCodewords(t *testing.T, c *Cycle) {
	t.Helper()
	for in := uint64(0); in < 8; in++ {
		st := bitvec.New(c.Circuit.Width())
		for i, wires := range c.In {
			code.EncodeInto(st, wires, in>>uint(i)&1 == 1, 1)
		}
		c.Circuit.Run(st)
		for i, wires := range c.Out {
			v := st.Get(wires[0])
			for _, w := range wires[1:] {
				if st.Get(w) != v {
					t.Fatalf("input %03b: output codeword %d not clean", in, i)
				}
			}
		}
	}
}

// testCycleSingleFaultExhaustive proves single-fault tolerance of a complete
// local cycle: for every input, every op, and every fault value, all decoded
// logical outputs are correct.
func testCycleSingleFaultExhaustive(t *testing.T, c *Cycle) {
	t.Helper()
	a := c.AuditSingleFaults()
	if !a.Tolerant() {
		f := a.Failures[0]
		t.Fatalf("%d of %d single faults flip a logical output, e.g. input %03b, fault (op %d = %s, val %b)",
			len(a.Failures), a.Cases, f.Input, f.OpIndex, c.Circuit.Op(f.OpIndex), f.Value)
	}
}

func TestCycle1DSemantics(t *testing.T) {
	for _, k := range []gate.Kind{gate.MAJ, gate.Toffoli, gate.Fredkin} {
		testCycleSemantics(t, NewCycle1D(k))
	}
}

func TestCycle1DOutputsClean(t *testing.T) {
	testCycleOutputsAreCleanCodewords(t, NewCycle1D(gate.MAJ))
}

func TestCycle1DLocal(t *testing.T) {
	c := NewCycle1D(gate.MAJ)
	if err := CheckLocal(c.Circuit, c.Layout, InitExempt); err != nil {
		t.Fatalf("1D cycle not local: %v", err)
	}
}

// TestCycle1DFaultAudit documents a machine-verified finding about the
// literal §3.2 construction: it is NOT strictly single-fault tolerant. A
// fault on an interleaving swap where a moving data bit crosses another
// codeword's data bit seeds errors in two codewords at different code
// positions; the transversal gate then spreads each error into the other
// codeword, leaving two errors per codeword — beyond what recovery can fix.
// The audit proves that every vulnerable op is exactly such a pre-gate
// crossing op, and that all other single faults (the overwhelming majority)
// are tolerated. The paper's per-codeword accounting (G = 40) does not see
// this cross-codeword propagation; see EXPERIMENTS.md.
func TestCycle1DFaultAudit(t *testing.T) {
	c := NewCycle1D(gate.MAJ)
	audit := c.AuditSingleFaults()
	if audit.Tolerant() {
		t.Fatal("expected the literal 1D cycle to have crossing-fault failures; if this now passes, update EXPERIMENTS.md")
	}
	crossing := c.CrossingOps()
	if len(crossing) == 0 {
		t.Fatal("no crossing ops identified")
	}
	for op := range audit.VulnerableOps {
		if !crossing[op] {
			t.Fatalf("op %d (%s) is vulnerable but not a pre-gate data-data crossing",
				op, c.Circuit.Op(op))
		}
	}
	// The failure set must be a small fraction: fault tolerance holds for
	// every non-crossing op.
	if frac := float64(len(audit.Failures)) / float64(audit.Cases); frac > 0.02 {
		t.Fatalf("failure fraction %v implausibly large", frac)
	}
}

// TestCycle1DLinearCoefficient: the audit-derived first-order coefficient λ
// must predict the small-g Monte Carlo logical error rate of the 1D cycle:
// measured ≈ λ·g once g is small enough that two-fault terms are negligible.
func TestCycle1DLinearCoefficient(t *testing.T) {
	c := NewCycle1D(gate.MAJ)
	lambda := c.AuditSingleFaults().LinearCoefficient()
	if lambda <= 0 {
		t.Fatalf("λ = %v, want positive (the 1D cycle has crossing failures)", lambda)
	}
	const g = 2e-4
	est := sim.MonteCarlo(400000, 0, 31, func(r *rng.RNG) bool {
		in := r.Bits(3)
		st := bitvec.New(c.Circuit.Width())
		for i, wires := range c.In {
			code.EncodeInto(st, wires, in>>uint(i)&1 == 1, 1)
		}
		sim.RunNoisy(c.Circuit, st, noise.Uniform(g), r)
		want := c.Kind.Eval(in)
		for i, wires := range c.Out {
			if code.Decode(st, wires, 1) != (want>>uint(i)&1 == 1) {
				return true
			}
		}
		return false
	})
	predicted := lambda * g
	lo, hi := est.Wilson(1.96)
	// The prediction must sit inside (a slightly widened) confidence band.
	if predicted < lo*0.7 || predicted > hi*1.3 {
		t.Fatalf("λ·g = %v outside measured band [%v, %v] (λ = %v)", predicted, lo, hi, lambda)
	}
}

// TestCycle2DFaultAuditClean: the perpendicular 2D scheme's movers cross
// only ancilla cells, so its audit must come back perfectly clean.
func TestCycle2DFaultAuditClean(t *testing.T) {
	c := NewCycle2D(gate.MAJ)
	audit := c.AuditSingleFaults()
	if !audit.Tolerant() {
		t.Fatalf("2D cycle has %d single-fault failures, e.g. %+v",
			len(audit.Failures), audit.Failures[0])
	}
	if len(c.CrossingOps()) != 0 {
		t.Fatal("2D cycle should have no data-data crossing ops")
	}
}

func TestCycle1DArityCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("2-bit gate accepted")
		}
	}()
	NewCycle1D(gate.CNOT)
}

// TestCycle1DPerCodewordCounts checks the paper's G = 40 accounting: the
// middle-moving codeword b2 experiences exactly 12 SWAP3 + 3 gate ops +
// 12 SWAP3 + 13 recovery ops = 40. The outer codeword b0 is additionally
// brushed by b2's movers (3 ops each way), giving a measured worst case of
// 44 — see EXPERIMENTS.md.
func TestCycle1DPerCodewordCounts(t *testing.T) {
	c := NewCycle1D(gate.MAJ)
	paperWith, paperNo := c.PaperG()
	if paperWith != threshold.G1DInit || paperNo != threshold.G1D {
		t.Fatalf("PaperG = %d,%d", paperWith, paperNo)
	}
	if got := c.CountPerCodeword(2); got != 40 {
		t.Fatalf("b2 per-codeword count = %d, want paper's 40", got)
	}
	for cw := 0; cw < 3; cw++ {
		got := c.CountPerCodeword(cw)
		if got > 44 {
			t.Fatalf("codeword %d count = %d exceeds recounted worst case 44", cw, got)
		}
		if got < Recovery1DOps+3 {
			t.Fatalf("codeword %d count = %d implausibly small", cw, got)
		}
	}
}

func TestCycle1DChains(t *testing.T) {
	// Out == In: two consecutive cycles compose; the pair must compute the
	// gate squared.
	c := NewCycle1D(gate.SWAP3)
	for i := range c.In {
		for j := range c.In[i] {
			if c.In[i][j] != c.Out[i][j] {
				t.Fatal("1D cycle does not preserve the data layout")
			}
		}
	}
	st := bitvec.New(c.Circuit.Width())
	code.EncodeInto(st, c.In[0], true, 1) // input 001
	c.Circuit.Run(st)
	c.Circuit.Run(st)
	var out uint64
	for i, wires := range c.Out {
		if code.Decode(st, wires, 1) {
			out |= 1 << uint(i)
		}
	}
	if want := gate.SWAP3.Eval(gate.SWAP3.Eval(1)); out != want {
		t.Fatalf("chained cycles gave %03b, want %03b", out, want)
	}
}

func TestCycle2DSemantics(t *testing.T) {
	for _, k := range []gate.Kind{gate.MAJ, gate.Toffoli, gate.Fredkin} {
		testCycleSemantics(t, NewCycle2D(k))
	}
}

func TestCycle2DOutputsClean(t *testing.T) {
	testCycleOutputsAreCleanCodewords(t, NewCycle2D(gate.MAJ))
}

// TestCycle2DFullyLocal: on the Figure 4 patch layout, every operation of
// the 2D cycle — including the grouped initializations — is a straight
// nearest-neighbor run. No exemption needed.
func TestCycle2DFullyLocal(t *testing.T) {
	c := NewCycle2D(gate.MAJ)
	if err := CheckLocal(c.Circuit, c.Layout, nil); err != nil {
		t.Fatalf("2D cycle not local: %v", err)
	}
}

func TestCycle2DSingleFaultExhaustive(t *testing.T) {
	testCycleSingleFaultExhaustive(t, NewCycle2D(gate.MAJ))
}

// TestCycle2DPerCodewordCounts: the paper reports G = 16 (init counted) /
// 14; a literal recount of the construction gives 17 (init counted) / 15
// for the moving codewords — 3 SWAP3 in, 3 gate ops, 3 SWAP3 out, 8
// recovery — and 11 for the stationary middle codeword. See EXPERIMENTS.md.
func TestCycle2DPerCodewordCounts(t *testing.T) {
	c := NewCycle2D(gate.MAJ)
	want := [3]int{17, 11, 17}
	for cw := 0; cw < 3; cw++ {
		if got := c.CountPerCodeword(cw); got != want[cw] {
			t.Fatalf("codeword %d count = %d, want %d", cw, got, want[cw])
		}
	}
}

func TestCycle2DInterleaveSwapBudget(t *testing.T) {
	// Perpendicular interleave: 12 elementary swaps (6 SWAP3), 6 per
	// moving codeword (3 SWAP3), matching §3.1.
	c := NewCycle2D(gate.MAJ)
	swap3 := 0
	c.Circuit.Each(func(i int, k gate.Kind, _ []int) {
		if i >= c.recStart {
			return
		}
		if k == gate.SWAP3 || k == gate.SWAP3Inv {
			swap3++
		}
	})
	if swap3 != 12 { // 6 in, 6 out
		t.Fatalf("SWAP3 count = %d, want 12 (6 interleave + 6 uninterleave)", swap3)
	}
}

func TestRecovery2DIsFigure2OnThePatch(t *testing.T) {
	// Same ops as the non-local recovery, and every op local on the patch
	// with no exemption.
	r2 := Recovery2D()
	if err := CheckLocal(r2, Patch2DLayout(), nil); err != nil {
		t.Fatalf("2D recovery not local on the Figure 4 patch: %v", err)
	}
	// Noiseless recode semantics identical to Figure 2.
	for d := uint64(0); d < 8; d++ {
		st := bitvec.New(9)
		for i := 0; i < 3; i++ {
			st.Set(i, d>>uint(i)&1 == 1)
		}
		r2.Run(st)
		want := gate.Majority(d&1 == 1, d&2 == 2, d&4 == 4)
		for _, w := range []int{0, 3, 6} {
			if st.Get(w) != want {
				t.Fatalf("input %03b: output %d wrong", d, w)
			}
		}
	}
}

func TestParallelInterleave2DCounts(t *testing.T) {
	swaps := ParallelInterleave2D()
	if len(swaps) != Interleave2DParSwaps {
		t.Fatalf("parallel interleave has %d swaps, want %d", len(swaps), Interleave2DParSwaps)
	}
	for cw := 0; cw < 3; cw++ {
		if got := ParallelInterleaveSwapsTouching(cw); got != Interleave2DMaxPerCodeword {
			t.Fatalf("codeword %d touched by %d swaps, want %d", cw, got, Interleave2DMaxPerCodeword)
		}
	}
}

// TestParallelInterleave2DRealizesTranspose: applying the swap schedule to
// the column [A A A B B B C C C] yields interleaved triples.
func TestParallelInterleave2DRealizesTranspose(t *testing.T) {
	vals := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	for _, s := range ParallelInterleave2D() {
		vals[s[0]], vals[s[1]] = vals[s[1]], vals[s[0]]
	}
	for b := 0; b < 3; b++ {
		seen := [3]bool{}
		for i := 0; i < 3; i++ {
			seen[vals[3*b+i]] = true
		}
		if !seen[0] || !seen[1] || !seen[2] {
			t.Fatalf("block %d = %v does not hold one bit of each codeword", b, vals[3*b:3*b+3])
		}
	}
}

func BenchmarkCycle1DRun(b *testing.B) {
	c := NewCycle1D(gate.MAJ)
	st := bitvec.New(c.Circuit.Width())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Circuit.Run(st)
	}
}

func BenchmarkCycle2DRun(b *testing.B) {
	c := NewCycle2D(gate.MAJ)
	st := bitvec.New(c.Circuit.Width())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Circuit.Run(st)
	}
}
