// Package circuit provides the circuit representation for reversible logic:
// an ordered list of gate applications on a fixed set of wires.
//
// Circuits follow the paper's gate-array picture: wires are fixed positions
// (space, drawn top to bottom) and gates are applied in sequence (time, drawn
// left to right). A circuit knows how to run itself on a state, compose,
// invert, schedule itself into moments of non-overlapping gates, audit its
// gate counts, and render itself as an ASCII gate array.
//
// Construction errors (out-of-range or duplicate targets, arity mismatch)
// panic: they are programming errors in circuit-generation code, akin to
// slice index violations.
package circuit

import (
	"fmt"

	"revft/internal/bitvec"
	"revft/internal/gate"
)

// Op is a single gate application. Targets has length equal to the gate's
// arity, and targets[i] carries local bit i of the gate's semantics.
type Op struct {
	Kind    gate.Kind
	Targets []int
}

// clone returns a deep copy of the op.
func (o Op) clone() Op {
	t := make([]int, len(o.Targets))
	copy(t, o.Targets)
	return Op{Kind: o.Kind, Targets: t}
}

// String renders the op as, e.g., "MAJ(0,3,6)".
func (o Op) String() string {
	s := o.Kind.String() + "("
	for i, t := range o.Targets {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(t)
	}
	return s + ")"
}

// Circuit is an ordered sequence of gate applications on width wires.
type Circuit struct {
	width int
	ops   []Op
}

// New returns an empty circuit on width wires. It panics if width is
// negative.
func New(width int) *Circuit {
	if width < 0 {
		panic("circuit: negative width")
	}
	return &Circuit{width: width}
}

// Width returns the number of wires.
func (c *Circuit) Width() int { return c.width }

// Len returns the number of gate applications.
func (c *Circuit) Len() int { return len(c.ops) }

// Ops returns a deep copy of the op list.
func (c *Circuit) Ops() []Op {
	out := make([]Op, len(c.ops))
	for i, o := range c.ops {
		out[i] = o.clone()
	}
	return out
}

// Op returns a copy of the i-th op.
func (c *Circuit) Op(i int) Op { return c.ops[i].clone() }

// Each calls fn for every op in program order without copying. The targets
// slice is shared with the circuit: callers must not modify or retain it.
// This is the allocation-free path for hot simulation loops.
func (c *Circuit) Each(fn func(i int, k gate.Kind, targets []int)) {
	for i := range c.ops {
		fn(i, c.ops[i].Kind, c.ops[i].Targets)
	}
}

// ValidationError is the panic value Append throws on malformed gate
// applications (wrong arity, out-of-range target, duplicate target). A
// distinct type lets recovering callers (like the deserializer) convert
// exactly these panics into errors while re-panicking on anything else.
type ValidationError struct {
	msg string
}

func (e *ValidationError) Error() string { return e.msg }

func validationf(format string, args ...any) *ValidationError {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// Append adds a gate application, validating arity, range, and target
// distinctness. Validation failures panic with a *ValidationError.
func (c *Circuit) Append(k gate.Kind, targets ...int) *Circuit {
	if got, want := len(targets), k.Arity(); got != want {
		panic(validationf("circuit: %s wants %d targets, got %d", k, want, got))
	}
	for i, t := range targets {
		if t < 0 || t >= c.width {
			panic(validationf("circuit: target %d out of range [0,%d)", t, c.width))
		}
		for j := 0; j < i; j++ {
			if targets[j] == t {
				panic(validationf("circuit: duplicate target %d in %s", t, k))
			}
		}
	}
	ts := make([]int, len(targets))
	copy(ts, targets)
	c.ops = append(c.ops, Op{Kind: k, Targets: ts})
	return c
}

// Convenience builders, named after the paper's gates.

// NOT appends a NOT gate on wire t.
func (c *Circuit) NOT(t int) *Circuit { return c.Append(gate.NOT, t) }

// CNOT appends a controlled-NOT with control ctrl and target tgt.
func (c *Circuit) CNOT(ctrl, tgt int) *Circuit { return c.Append(gate.CNOT, ctrl, tgt) }

// Swap appends a SWAP of wires a and b.
func (c *Circuit) Swap(a, b int) *Circuit { return c.Append(gate.SWAP, a, b) }

// Toffoli appends a Toffoli gate with controls c1, c2 and target tgt.
func (c *Circuit) Toffoli(c1, c2, tgt int) *Circuit { return c.Append(gate.Toffoli, c1, c2, tgt) }

// Fredkin appends a controlled-SWAP with control ctrl swapping a and b.
func (c *Circuit) Fredkin(ctrl, a, b int) *Circuit { return c.Append(gate.Fredkin, ctrl, a, b) }

// MAJ appends the reversible majority gate on (a, b, cw).
func (c *Circuit) MAJ(a, b, cw int) *Circuit { return c.Append(gate.MAJ, a, b, cw) }

// MAJInv appends the inverse majority gate on (a, b, cw).
func (c *Circuit) MAJInv(a, b, cw int) *Circuit { return c.Append(gate.MAJInv, a, b, cw) }

// Swap3 appends the paper's SWAP3 gate (two swaps) on (a, b, cw).
func (c *Circuit) Swap3(a, b, cw int) *Circuit { return c.Append(gate.SWAP3, a, b, cw) }

// Init3 appends a three-bit initialization resetting (a, b, cw) to zero.
func (c *Circuit) Init3(a, b, cw int) *Circuit { return c.Append(gate.Init3, a, b, cw) }

// Compose appends every op of other to c. Other must not be wider than c.
func (c *Circuit) Compose(other *Circuit) *Circuit {
	if other.width > c.width {
		panic(fmt.Sprintf("circuit: composing width %d into width %d", other.width, c.width))
	}
	for _, o := range other.ops {
		c.ops = append(c.ops, o.clone())
	}
	return c
}

// Remap appends every op of other with wires renamed through f, which must
// map into c's range. Used to embed a sub-circuit at an offset or onto a
// lattice placement.
func (c *Circuit) Remap(other *Circuit, f func(int) int) *Circuit {
	for _, o := range other.ops {
		ts := make([]int, len(o.Targets))
		for i, t := range o.Targets {
			ts[i] = f(t)
		}
		c.Append(o.Kind, ts...)
	}
	return c
}

// Inverse returns the circuit implementing the inverse transformation: ops
// reversed, each replaced by its inverse gate. It returns an error if the
// circuit contains an irreversible Init3.
func (c *Circuit) Inverse() (*Circuit, error) {
	inv := New(c.width)
	for i := len(c.ops) - 1; i >= 0; i-- {
		o := c.ops[i]
		ik, ok := o.Kind.Inverse()
		if !ok {
			return nil, fmt.Errorf("circuit: op %d (%s) is irreversible", i, o)
		}
		inv.Append(ik, o.Targets...)
	}
	return inv, nil
}

// Run applies every op in order to st, noiselessly. The state must be at
// least as wide as the circuit.
func (c *Circuit) Run(st *bitvec.Vector) {
	if st.Len() < c.width {
		panic(fmt.Sprintf("circuit: state width %d < circuit width %d", st.Len(), c.width))
	}
	for _, o := range c.ops {
		o.Kind.Apply(st, o.Targets...)
	}
}

// Eval runs the circuit on the packed input (wire i in bit i) and returns
// the packed output. It panics if the circuit is wider than 64 wires.
func (c *Circuit) Eval(in uint64) uint64 {
	if c.width > 64 {
		panic("circuit: Eval requires width <= 64")
	}
	st := bitvec.FromUint(in, c.width)
	c.Run(st)
	return st.Uint(0, c.width)
}

// Permutation tabulates the circuit's action over all 2^width inputs. It
// panics for width > 20 (the table would exceed a million entries). For
// reversible circuits the result is a permutation; with Init3 present it is
// merely a function.
func (c *Circuit) Permutation() []uint64 {
	if c.width > 20 {
		panic("circuit: Permutation requires width <= 20")
	}
	n := 1 << uint(c.width)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = c.Eval(uint64(i))
	}
	return out
}

// EquivalentTo reports whether the two circuits compute the same function on
// all inputs. Both must have the same width (<= 20 wires).
func (c *Circuit) EquivalentTo(other *Circuit) bool {
	if c.width != other.width {
		return false
	}
	p, q := c.Permutation(), other.Permutation()
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// GateCount returns the total number of gate applications.
func (c *Circuit) GateCount() int { return len(c.ops) }

// CountByKind returns how many times each gate kind appears.
func (c *Circuit) CountByKind() map[gate.Kind]int {
	out := make(map[gate.Kind]int)
	for _, o := range c.ops {
		out[o.Kind]++
	}
	return out
}

// CountOn returns the number of ops that touch wire w.
func (c *Circuit) CountOn(w int) int {
	n := 0
	for _, o := range c.ops {
		for _, t := range o.Targets {
			if t == w {
				n++
				break
			}
		}
	}
	return n
}

// Moments greedily schedules the ops into time steps: each op lands in the
// first moment after the last op sharing any of its wires. Op order within a
// moment preserves program order; semantics are unchanged because ops in one
// moment act on disjoint wires.
func (c *Circuit) Moments() [][]Op {
	frontier := make([]int, c.width) // next free moment per wire
	var moments [][]Op
	for _, o := range c.ops {
		m := 0
		for _, t := range o.Targets {
			if frontier[t] > m {
				m = frontier[t]
			}
		}
		for len(moments) <= m {
			moments = append(moments, nil)
		}
		moments[m] = append(moments[m], o.clone())
		for _, t := range o.Targets {
			frontier[t] = m + 1
		}
	}
	return moments
}

// Depth returns the number of moments, i.e. the parallel execution time.
func (c *Circuit) Depth() int { return len(c.Moments()) }

// Clone returns an independent copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.width)
	out.ops = make([]Op, len(c.ops))
	for i, o := range c.ops {
		out.ops[i] = o.clone()
	}
	return out
}
