package core

import (
	"fmt"

	"revft/internal/circuit"
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
	return NewTarget("memory", m.Circuit, [][]int{m.In}, [][]int{m.Out}, circuit.New(1))
}
