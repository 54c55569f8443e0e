package sim

import (
	"math"
	"testing"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
)

func TestRunNoisyNoiseless(t *testing.T) {
	c := circuit.New(3).MAJ(0, 1, 2)
	for in := uint64(0); in < 8; in++ {
		st := bitvec.FromUint(in, 3)
		faults := RunNoisy(c, st, noise.Noiseless, rng.New(1))
		if faults != 0 {
			t.Fatalf("noiseless run reported %d faults", faults)
		}
		if got, want := st.Uint(0, 3), gate.MAJ.Eval(in); got != want {
			t.Fatalf("noiseless RunNoisy(%03b) = %03b, want %03b", in, got, want)
		}
	}
}

func TestRunNoisyAlwaysFaults(t *testing.T) {
	// With g = 1 every op faults, and the targets become uniform.
	c := circuit.New(3).MAJ(0, 1, 2)
	r := rng.New(2)
	counts := make(map[uint64]int)
	const n = 8000
	for i := 0; i < n; i++ {
		st := bitvec.New(3)
		if faults := RunNoisy(c, st, noise.Uniform(1), r); faults != 1 {
			t.Fatalf("faults = %d, want 1", faults)
		}
		counts[st.Uint(0, 3)]++
	}
	if len(counts) != 8 {
		t.Fatalf("faulty outputs cover %d states, want 8", len(counts))
	}
	for s, c := range counts {
		f := float64(c) / n
		if math.Abs(f-0.125) > 0.02 {
			t.Fatalf("state %03b frequency %v, want ~1/8", s, f)
		}
	}
}

func TestRunNoisyFaultRate(t *testing.T) {
	c := circuit.New(3)
	for i := 0; i < 100; i++ {
		c.MAJ(0, 1, 2)
	}
	r := rng.New(3)
	total := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		st := bitvec.New(3)
		total += RunNoisy(c, st, noise.Uniform(0.1), r)
	}
	rate := float64(total) / float64(trials*100)
	if math.Abs(rate-0.1) > 0.01 {
		t.Fatalf("observed fault rate %v, want ~0.1", rate)
	}
}

func TestRunNoisyPerfectInit(t *testing.T) {
	c := circuit.New(3)
	for i := 0; i < 200; i++ {
		c.Init3(0, 1, 2)
	}
	st := bitvec.New(3)
	if faults := RunNoisy(c, st, noise.PerfectInit(1), rng.New(4)); faults != 0 {
		t.Fatalf("perfect init faulted %d times", faults)
	}
}

func TestRunInjected(t *testing.T) {
	// NOT(0) then NOT(0): identity. Inject value 1 after the first op: the
	// wire is forced to 1, and the second NOT flips it to 0... starting from
	// 0: op0 -> 1, injected to 1 (unchanged), op1 -> 0. Inject 0 instead:
	// op0 -> 1, forced 0, op1 -> 1.
	c := circuit.New(1).NOT(0).NOT(0)
	st := bitvec.New(1)
	RunInjected(c, st, noise.NewPlan(noise.Injection{OpIndex: 0, Value: 0}))
	if !st.Get(0) {
		t.Fatal("injection did not change the outcome")
	}
	st = bitvec.New(1)
	RunInjected(c, st, noise.Plan{})
	if st.Get(0) {
		t.Fatal("empty plan changed semantics")
	}
}

func TestRunInjectedMultiBit(t *testing.T) {
	c := circuit.New(3).MAJ(0, 1, 2)
	st := bitvec.New(3)
	RunInjected(c, st, noise.NewPlan(noise.Injection{OpIndex: 0, Value: 0b101}))
	if got := st.Uint(0, 3); got != 0b101 {
		t.Fatalf("injected state = %03b, want 101", got)
	}
}

func TestForEachSingleFaultCoverage(t *testing.T) {
	c := circuit.New(3).NOT(0).CNOT(0, 1).MAJ(0, 1, 2)
	var count int
	seen := make(map[[2]uint64]bool)
	ForEachSingleFault(c, func(op int, v uint64) {
		count++
		seen[[2]uint64{uint64(op), v}] = true
	})
	want := 2 + 4 + 8 // arities 1, 2, 3
	if count != want || len(seen) != want {
		t.Fatalf("enumerated %d (%d unique) faults, want %d", count, len(seen), want)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	trial := func(r *rng.RNG) bool { return r.Bool(0.3) }
	a := scalarRun(t, 10000, 4, 42, trial)
	b := scalarRun(t, 10000, 4, 42, trial)
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
	c := scalarRun(t, 10000, 4, 43, trial)
	if a == c {
		t.Fatal("different seeds gave identical results (suspicious)")
	}
}

func TestMonteCarloRate(t *testing.T) {
	b := scalarRun(t, 100000, 8, 7, func(r *rng.RNG) bool { return r.Bool(0.25) })
	if b.Trials != 100000 {
		t.Fatalf("Trials = %d", b.Trials)
	}
	if math.Abs(b.Rate()-0.25) > 0.01 {
		t.Fatalf("rate = %v, want ~0.25", b.Rate())
	}
}

func TestMonteCarloEdges(t *testing.T) {
	if got := scalarRun(t, 0, 4, 1, func(*rng.RNG) bool { return true }); got.Trials != 0 {
		t.Fatalf("zero trials gave %v", got)
	}
	// More workers than trials.
	got := scalarRun(t, 3, 16, 1, func(*rng.RNG) bool { return true })
	if got.Trials != 3 || got.Successes != 3 {
		t.Fatalf("tiny run gave %v", got)
	}
	// workers <= 0 uses GOMAXPROCS.
	got = scalarRun(t, 100, 0, 1, func(*rng.RNG) bool { return false })
	if got.Trials != 100 || got.Successes != 0 {
		t.Fatalf("auto workers gave %v", got)
	}
}

func TestMonteCarloTrialCountExact(t *testing.T) {
	// 7 workers, 100 trials: remainder spread; every trial must run once.
	var got = scalarRun(t, 100, 7, 9, func(*rng.RNG) bool { return true })
	if got.Successes != 100 {
		t.Fatalf("ran %d trials, want 100", got.Successes)
	}
}

func BenchmarkRunNoisy(b *testing.B) {
	c := circuit.New(9)
	c.Init3(3, 4, 5).Init3(6, 7, 8)
	for i := 0; i < 3; i++ {
		c.MAJInv(i, i+3, i+6)
	}
	for i := 0; i < 3; i++ {
		c.MAJ(3*i, 3*i+1, 3*i+2)
	}
	st := bitvec.New(9)
	r := rng.New(1)
	m := noise.Uniform(0.005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunNoisy(c, st, m, r)
	}
}
