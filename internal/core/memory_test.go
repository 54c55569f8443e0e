package core

import (
	"testing"

	"revft/internal/bitvec"
	"revft/internal/code"
	"revft/internal/noise"
	"revft/internal/rng"
)

func TestMemoryNoiseless(t *testing.T) {
	for level := 1; level <= 2; level++ {
		for _, cycles := range []int{0, 1, 5} {
			m := NewMemory(level, cycles)
			for _, v := range []bool{false, true} {
				st := bitvec.New(m.Circuit.Width())
				code.EncodeInto(st, m.In, v, level)
				m.Circuit.Run(st)
				if code.Decode(st, m.Out, level) != v {
					t.Fatalf("level %d, %d cycles: lost value %v", level, cycles, v)
				}
			}
		}
	}
}

func TestMemoryCircuitSize(t *testing.T) {
	// One cycle at level 1 is exactly E = 8 physical ops; R cycles are 8R.
	for _, cycles := range []int{1, 3, 10} {
		m := NewMemory(1, cycles)
		if got, want := m.Circuit.Len(), RecoveryOps*cycles; got != want {
			t.Fatalf("%d cycles: %d ops, want %d", cycles, got, want)
		}
	}
	// At level 2 each cycle is E logical gates at level 1, each Γ₁ = 27.
	m := NewMemory(2, 1)
	if got, want := m.Circuit.Len(), RecoveryOps*GateBlowup(1); got != want {
		t.Fatalf("level-2 cycle: %d ops, want %d", got, want)
	}
}

// TestMemorySingleFaultExhaustive: a stored bit survives any single
// randomizing fault across three consecutive recovery cycles at level 1.
func TestMemorySingleFaultExhaustive(t *testing.T) {
	m := NewMemory(1, 3)
	requireTolerant(t, m.Target())
}

// TestMemoryErrorGrowsLinearly: below threshold the storage failure rate
// grows roughly linearly with the number of cycles.
func TestMemoryErrorGrowsLinearly(t *testing.T) {
	const g = 8e-3
	nm := noise.Uniform(g)
	r5 := NewMemory(1, 5).ErrorRate(nm, 150000, 0, 11)
	r20 := NewMemory(1, 20).ErrorRate(nm, 150000, 0, 12)
	ratio := r20.Rate() / r5.Rate()
	if ratio < 2.5 || ratio > 6.5 {
		t.Fatalf("20-cycle vs 5-cycle error ratio = %v (rates %v, %v), want ≈4",
			ratio, r5.Rate(), r20.Rate())
	}
}

// TestMemoryLevel2Better: at fixed cycle count below threshold, level 2
// stores more reliably than level 1.
func TestMemoryLevel2Better(t *testing.T) {
	const g = 4e-3
	nm := noise.Uniform(g)
	l1 := NewMemory(1, 10).ErrorRate(nm, 120000, 0, 13)
	l2 := NewMemory(2, 10).ErrorRate(nm, 120000, 0, 14)
	lo1, _ := l1.Wilson(1.96)
	_, hi2 := l2.Wilson(1.96)
	if hi2 >= lo1 {
		t.Fatalf("level 2 (%v) not clearly better than level 1 (%v)", l2, l1)
	}
}

func TestMemoryPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"level 0":        func() { NewMemory(0, 1) },
		"negative":       func() { NewMemory(1, -1) },
		"recover range":  func() { NewBuilder(1, 1).Recover(3) },
		"recover level0": func() { NewBuilder(0, 1).Recover(0) },
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

func BenchmarkMemoryTrial(b *testing.B) {
	m := NewMemory(1, 10)
	nm := noise.Uniform(1e-3)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Trial(true, nm, r)
	}
}
