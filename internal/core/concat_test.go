package core

import (
	"context"
	"testing"

	"revft/internal/bitvec"
	"revft/internal/code"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/stats"
)

func TestBuilderAllocation(t *testing.T) {
	for level := 0; level <= 2; level++ {
		b := NewBuilder(level, 3)
		wantWidth := 3 * SizeBlowup(level)
		if got := b.Circuit().Width(); got != wantWidth {
			t.Fatalf("level %d: width = %d, want %d", level, got, wantWidth)
		}
		for i := 0; i < 3; i++ {
			if got := len(b.DataWires(i)); got != code.BlockSize(level) {
				t.Fatalf("level %d: bit %d has %d data wires", level, i, got)
			}
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative level": func() { NewBuilder(-1, 1) },
		"zero bits":      func() { NewBuilder(1, 0) },
		"arity mismatch": func() { NewBuilder(1, 3).Apply(gate.MAJ, 0, 1) },
		"bit range":      func() { NewBuilder(1, 2).Apply(gate.CNOT, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDataWiresDisjoint(t *testing.T) {
	b := NewBuilder(2, 3)
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		for _, w := range b.DataWires(i) {
			if seen[w] {
				t.Fatalf("wire %d appears in two codewords", w)
			}
			seen[w] = true
		}
	}
}

// TestGateBlowupMatchesPaper checks Γ_L = (3(G−2))^L against the emitted
// circuits: one logical gate at level L must expand to exactly (3·9)^L
// physical operations (G = 11, i.e. counting initialization).
func TestGateBlowupMatchesPaper(t *testing.T) {
	want := map[int]int{0: 1, 1: 27, 2: 729}
	for level, blowup := range want {
		if got := GateBlowup(level); got != blowup {
			t.Fatalf("GateBlowup(%d) = %d, want %d", level, got, blowup)
		}
		b := NewBuilder(level, 3)
		b.Apply(gate.MAJ, 0, 1, 2)
		if got := b.Circuit().Len(); got != blowup {
			t.Fatalf("level %d: emitted %d physical ops, want Γ = %d", level, got, blowup)
		}
	}
}

func TestSizeBlowup(t *testing.T) {
	want := []int{1, 9, 81, 729}
	for level, w := range want {
		if got := SizeBlowup(level); got != w {
			t.Fatalf("SizeBlowup(%d) = %d, want %d", level, got, w)
		}
	}
}

// TestNoiselessLogicalSemantics: the FT construction computes the same
// function as the bare gate, at every level, for every input.
func TestNoiselessLogicalSemantics(t *testing.T) {
	kinds := []gate.Kind{gate.NOT, gate.CNOT, gate.MAJ, gate.Toffoli, gate.SWAP3}
	for _, k := range kinds {
		for level := 0; level <= 2; level++ {
			g := NewGadget(k, level)
			n := uint64(1) << uint(k.Arity())
			for in := uint64(0); in < n; in++ {
				st := bitvec.New(g.Circuit.Width())
				for i, wires := range g.In {
					code.EncodeInto(st, wires, in>>uint(i)&1 == 1, level)
				}
				g.Circuit.Run(st)
				want := k.Eval(in)
				for i, wires := range g.Out {
					if got := code.Decode(st, wires, level); got != (want>>uint(i)&1 == 1) {
						t.Fatalf("%s level %d input %b: output bit %d wrong", k, level, in, i)
					}
				}
			}
		}
	}
}

// TestLevel1SingleFaultExhaustive proves single-fault tolerance of the
// complete level-1 logical gate (transversal MAJ + three recoveries, 27
// physical ops): no single randomizing fault anywhere flips any decoded
// logical output.
func TestLevel1SingleFaultExhaustive(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)
	if g.Circuit.Len() != 27 {
		t.Fatalf("level-1 MAJ gadget has %d ops, want 27", g.Circuit.Len())
	}
	requireTolerant(t, g.Target)
}

// requireTolerant fails the test unless the single-fault audit of tg is
// clean, naming the first failing fault.
func requireTolerant(t *testing.T, tg Target) {
	t.Helper()
	a := tg.AuditSingleFaults()
	if !a.Tolerant() {
		f := a.Failures[0]
		t.Fatalf("%s: %d of %d single faults flip a logical output, e.g. input %03b, fault (op %d = %s, val %03b)",
			tg.Name, len(a.Failures), a.Cases, f.Input, f.OpIndex, tg.Circuit.Op(f.OpIndex), f.Value)
	}
}

// scalarRate is tg's Estimate from trial 0 on the scalar engine and
// GOMAXPROCS workers, failing the test on error.
func scalarRate(t *testing.T, tg Target, in Input, run Run, trials int, seed uint64) stats.Bernoulli {
	t.Helper()
	res, err := tg.Estimate(context.Background(), in, run, 0, 0, trials, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res.Bernoulli
}

// TestGadgetTrialNoiseless: with no noise a trial never reports an error.
func TestGadgetTrialNoiseless(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		if g.Trial(Uniform, Noisy(noise.Noiseless))(r) {
			t.Fatal("noiseless trial reported a logical error")
		}
	}
}

// TestLogicalErrorRateImproves: below threshold, the level-1 logical error
// rate must be lower than the bare gate error rate; far above threshold, the
// encoding must hurt. This is the qualitative content of Equation 1.
func TestLogicalErrorRateImproves(t *testing.T) {
	g := NewGadget(gate.MAJ, 1)

	// g0 well below threshold 1/108.
	const low = 1e-3
	est := scalarRate(t, g.Target, Uniform, Noisy(noise.Uniform(low)), 200000, 42)
	_, hi := est.Wilson(1.96)
	if hi >= low {
		t.Fatalf("below threshold: glogical = %v not < g = %v", est, low)
	}

	// g0 far above threshold: encoding should be worse than the bare gate.
	const high = 0.25
	est = scalarRate(t, g.Target, Uniform, Noisy(noise.Uniform(high)), 20000, 43)
	lo, _ := est.Wilson(1.96)
	if lo <= high {
		t.Fatalf("above threshold: glogical = %v not > g = %v", est, high)
	}
}

// TestLevel2BeatsLevel1BelowThreshold: concatenation helps below threshold.
// The level-1 rate at g0 is A₂·g0² ≈ 5.2e-5 (A₂ = 825/64), so it runs
// 1.5M trials (~77 expected failures): its Wilson lower bound then clears
// a zero-failure level-2 bound unless the count falls ~2.8σ short. At
// 150k trials the expected ~8 failures sat on the pass/fail edge.
func TestLevel2BeatsLevel1BelowThreshold(t *testing.T) {
	const g0 = 2e-3 // comfortably below 1/108 ≈ 9.3e-3
	run := Noisy(noise.Uniform(g0))
	l1 := scalarRate(t, NewGadget(gate.MAJ, 1).Target, Uniform, run, 1500000, 7)
	l2 := scalarRate(t, NewGadget(gate.MAJ, 2).Target, Uniform, run, 150000, 8)
	_, hi2 := l2.Wilson(1.96)
	lo1, _ := l1.Wilson(1.96)
	if hi2 >= lo1 {
		t.Fatalf("level 2 (%v) not clearly better than level 1 (%v) at g=%v", l2, l1, g0)
	}
}

func TestTrialInputDeterministicIdealPath(t *testing.T) {
	g := NewGadget(gate.CNOT, 1)
	r := rng.New(9)
	for in := uint64(0); in < 4; in++ {
		if g.Trial(Fixed(in), Noisy(noise.Noiseless))(r) {
			t.Fatalf("noiseless trial on input %02b reported error", in)
		}
	}
}

func BenchmarkGadgetTrialLevel1(b *testing.B) {
	g := NewGadget(gate.MAJ, 1)
	trial := g.Trial(Uniform, Noisy(noise.Uniform(1e-3)))
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial(r)
	}
}

func BenchmarkGadgetTrialLevel2(b *testing.B) {
	g := NewGadget(gate.MAJ, 2)
	trial := g.Trial(Uniform, Noisy(noise.Uniform(1e-3)))
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial(r)
	}
}

// TestLevel2SingleFaultExhaustive extends the exhaustive proof one level
// up: no single randomizing fault anywhere in the 729-op level-2 logical
// gate flips any decoded output. (The level-2 code corrects any single
// physical error, and the construction never lets one fault become two
// errors in the same block.)
func TestLevel2SingleFaultExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive level-2 sweep skipped in -short mode")
	}
	g := NewGadget(gate.MAJ, 2)
	if g.Circuit.Len() != 729 {
		t.Fatalf("level-2 gadget has %d ops, want 729", g.Circuit.Len())
	}
	requireTolerant(t, g.Target)
}
