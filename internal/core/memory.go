package core

import (
	"fmt"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/code"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
)

// Recover emits one level-top error-recovery cycle on logical bit i. This
// is the storage primitive: a bit that is merely held still needs periodic
// recovery, and each cycle contributes E logical gates at the level below.
func (b *Builder) Recover(i int) *Builder {
	if b.level == 0 {
		panic("core: Recover requires level >= 1")
	}
	if i < 0 || i >= len(b.bits) {
		panic(fmt.Sprintf("core: logical bit %d out of range [0,%d)", i, len(b.bits)))
	}
	b.recover(b.bits[i])
	return b
}

// Memory is one logical bit held through a number of recovery cycles — the
// fault-tolerant storage experiment. The paper's per-cycle bit error bound
// P_bit ≤ C(E,2)·g² (only the E recovery ops act on a stored bit) predicts
// a logical error growing linearly in the number of cycles, with the
// quadratic per-cycle coefficient.
type Memory struct {
	Level   int
	Cycles  int
	Circuit *circuit.Circuit
	// In and Out list the physical wires of the codeword before and after.
	In, Out []int
}

// NewMemory builds the storage circuit: cycles recovery rounds on one
// logical bit at the given concatenation level.
func NewMemory(level, cycles int) *Memory {
	if cycles < 0 {
		panic("core: negative cycle count")
	}
	b := NewBuilder(level, 1)
	in := b.DataWires(0)
	for c := 0; c < cycles; c++ {
		b.Recover(0)
	}
	return &Memory{
		Level:   level,
		Cycles:  cycles,
		Circuit: b.Circuit(),
		In:      in,
		Out:     b.DataWires(0),
	}
}

// Target returns the memory as a Target named "memory": the storage
// circuit between the bit's codewords, whose ideal action is the identity.
func (m *Memory) Target() Target {
	return Target{Name: "memory", Circuit: m.Circuit, In: [][]int{m.In}, Out: [][]int{m.Out}, Logical: circuit.New(1)}
}

// Trial stores v, runs all cycles under noise, and reports whether the
// decoded value flipped.
func (m *Memory) Trial(v bool, nm noise.Model, r *rng.RNG) bool {
	st := bitvec.New(m.Circuit.Width())
	code.EncodeInto(st, m.In, v, m.Level)
	sim.RunNoisy(m.Circuit, st, nm, r)
	return code.Decode(st, m.Out, m.Level) != v
}

// ErrorRate estimates the storage failure probability by parallel Monte
// Carlo over random stored values.
func (m *Memory) ErrorRate(nm noise.Model, trials, workers int, seed uint64) stats.Bernoulli {
	return sim.MonteCarlo(trials, workers, seed, func(r *rng.RNG) bool {
		return m.Trial(r.Bool(0.5), nm, r)
	})
}
