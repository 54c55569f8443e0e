package core

// Exhaustive fault injection on a Target: the single-fault audit behind
// every fault-tolerance check (§2.2) and the pair walk behind Equation 1's
// quadratic coefficient. Both run on Injected, so they share Trial's ideal
// encoder and decoder and differ from it only in how faults are chosen.

import (
	"revft/internal/bitvec"
	"revft/internal/sim"
)

// Injected is Trial's deterministic counterpart, the reference run of
// every exhaustive fault check. The returned function encodes the packed
// logical input in ideally, runs the circuit with the faults listed in ops
// (op indices, strictly increasing) leaving the local values vals on their
// targets (sim.RunInjectedList), decodes, and reports whether any output
// differs from the logical circuit's. It reuses one state, so a call
// allocates nothing and the function is not safe for concurrent use. The
// logical circuit is tabulated over all its inputs, so it may have at most
// 20 wires.
func (t Target) Injected() func(in uint64, ops []int, vals []uint64) bool {
	cd := t.codec()
	table := t.Logical.Permutation()
	st := bitvec.New(t.Circuit.Width())
	return func(in uint64, ops []int, vals []uint64) bool {
		st.Clear()
		cd.encode(st, in)
		sim.RunInjectedList(t.Circuit, st, ops, vals)
		return cd.wrong(st, table[in])
	}
}

// FaultCase identifies one single-fault execution that produced a logical
// error: the packed logical input, the faulted op, and the value the fault
// left on the op's targets.
type FaultCase struct {
	Input   uint64
	OpIndex int
	Value   uint64
}

// FaultAudit is the result of exhaustively injecting every possible single
// randomizing fault into a target, over every logical input.
type FaultAudit struct {
	// Cases is the number of (input, op, value) combinations tried.
	Cases int
	// Failures lists the combinations that flipped a logical output, in
	// (input, op, value) order.
	Failures []FaultCase
	// VulnerableOps is the set of op indices with at least one failure.
	VulnerableOps map[int]bool

	target Target
}

// Tolerant reports whether the target survived every single fault.
func (a *FaultAudit) Tolerant() bool { return len(a.Failures) == 0 }

// LinearCoefficient returns λ such that the target's logical error rate is
// λ·g + O(g²) for small gate error g under the paper's noise model with a
// uniformly random logical input: each failing (input, op, value) triple
// contributes P(input)·P(value | op faults) to the first-order term, since
// to first order exactly one op faults and its output value is uniform.
func (a *FaultAudit) LinearCoefficient() float64 {
	nin := float64(uint64(1) << uint(len(a.target.In)))
	lambda := 0.0
	for _, f := range a.Failures {
		arity := a.target.Circuit.Op(f.OpIndex).Kind.Arity()
		lambda += 1 / nin / float64(uint64(1)<<uint(arity))
	}
	return lambda
}

// AuditSingleFaults exhaustively verifies single-fault tolerance: every
// logical input, every op, every value the op's fault could leave
// (sim.ForEachSingleFault). The recovery, the gadgets, storage and the
// perpendicular 2D cycle come back clean. The literal 1D cycle of §3.2
// does not: a fault on an interleaving swap where a moving data bit
// crosses another codeword's data bit corrupts two codewords at different
// code positions, and the transversal gate then spreads each error into
// the other codeword, defeating both recoveries (lattice's CrossingOps
// identifies exactly those ops; see EXPERIMENTS.md).
func (t Target) AuditSingleFaults() *FaultAudit {
	audit := &FaultAudit{VulnerableOps: make(map[int]bool), target: t}
	fails := t.Injected()
	var ops [1]int
	var vals [1]uint64
	nin := uint64(1) << uint(len(t.In))
	for in := uint64(0); in < nin; in++ {
		sim.ForEachSingleFault(t.Circuit, func(op int, val uint64) {
			audit.Cases++
			ops[0], vals[0] = op, val
			if fails(in, ops[:], vals[:]) {
				audit.Failures = append(audit.Failures, FaultCase{Input: in, OpIndex: op, Value: val})
				audit.VulnerableOps[op] = true
			}
		})
	}
	return audit
}

// forEachPair runs every two-fault combination of the target: for each
// pair of ops i < j, in order, it tries every logical input and every pair
// of fault values, then calls fn with how many of the combinations failed
// and how many there were. Level-1 gadgets are feasible (27 ops → 351
// pairs → ~180k deterministic executions).
func (t Target) forEachPair(fn func(fails int, cases uint64)) {
	nOps := t.Circuit.Len()
	arity := make([]int, nOps)
	for i := range arity {
		arity[i] = t.Circuit.Op(i).Kind.Arity()
	}
	nin := uint64(1) << uint(len(t.In))
	run := t.Injected()
	var ops [2]int
	var vals [2]uint64
	for i := 0; i < nOps; i++ {
		for j := i + 1; j < nOps; j++ {
			ops[0], ops[1] = i, j
			vi := uint64(1) << uint(arity[i])
			vj := uint64(1) << uint(arity[j])
			fails := 0
			for in := uint64(0); in < nin; in++ {
				for a := uint64(0); a < vi; a++ {
					for b := uint64(0); b < vj; b++ {
						vals[0], vals[1] = a, b
						if run(in, ops[:], vals[:]) {
							fails++
						}
					}
				}
			}
			fn(fails, nin*vi*vj)
		}
	}
}

// QuadraticCoefficient exhaustively enumerates every two-fault combination
// in the target — every pair of distinct ops, every pair of fault values,
// every logical input — and returns the exact second-order coefficient c₂
// of the logical error rate: g_logical = c₂·g² + O(g³) (assuming the
// target is single-fault tolerant, so there is no linear term).
//
// The paper's Equation 1 bounds c₂ by 3·C(G,2) by declaring every pair
// malignant; the exact count shows how conservative that is — most pairs
// are benign.
func (t Target) QuadraticCoefficient() float64 {
	total := 0.0
	t.forEachPair(func(fails int, cases uint64) {
		// Average failure probability of this pair over uniform inputs
		// and uniform fault values.
		total += float64(fails) / float64(cases)
	})
	return total
}

// MalignantPairs counts the op pairs for which at least one (input, value,
// value) combination produces a logical error — the pairs the paper's
// C(G,2) count treats as universally fatal.
func (t Target) MalignantPairs() (malignant, total int) {
	t.forEachPair(func(fails int, _ uint64) {
		total++
		if fails > 0 {
			malignant++
		}
	})
	return malignant, total
}
