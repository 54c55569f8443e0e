package lattice

import (
	"fmt"

	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
)

// NewCycle2DParallel builds the §3.1 logical-gate cycle using the
// *parallel* interleave: three Figure 4 patches stacked along the logical
// bit line, so the three codewords share one data column of nine cells. The
// 3×3 transpose of that column (nine adjacent SWAPs, Figure 6's pattern)
// brings matching code bits into vertical runs of three for the transversal
// gate.
//
// Ablation note: unlike the perpendicular scheme — whose movers only ever
// cross ancilla cells — the parallel transpose swaps data bits of different
// codewords directly, so this cycle inherits the same crossing-fault
// channel as the 1D construction and is not strictly single-fault tolerant.
// AuditSingleFaults exhibits the failures.
func NewCycle2DParallel(k gate.Kind) *Cycle {
	if k.Arity() != 3 {
		panic(fmt.Sprintf("lattice: NewCycle2DParallel needs a 3-bit gate, got %s", k))
	}
	// Patch p occupies rows 3p..3p+2 of a 3-wide grid; wire q(p,i) = 9p+i.
	var pts []Point
	for p := 0; p < 3; p++ {
		pts = append(pts, patchPoints(0, 3*p)...)
	}
	layout := Placed{Points: pts}

	// The shared data column is x = 1. Column row y holds patch y/3's
	// q-wire (2 − y%3): within a patch, q2 is the bottom row and q0 the
	// top.
	colWire := func(y int) int { return 9*(y/3) + (2 - y%3) }

	c := circuit.New(Cycle2DWidth)

	// Interleave: the 3×3 transpose along the column, compacted to SWAP3s.
	transpose := compactSwaps(ParallelInterleave2D())
	for _, op := range transpose {
		ts := make([]int, len(op.Targets))
		for i, row := range op.Targets {
			ts[i] = colWire(row)
		}
		c.Append(op.Kind, ts...)
	}
	// Transversal gate: after the transpose, column rows (3i, 3i+1, 3i+2)
	// hold bit (2−i) of codewords (b0, b1, b2) respectively — vertical
	// runs of three.
	gateStart := c.Len()
	for i := 0; i < 3; i++ {
		c.Append(k, colWire(3*i), colWire(3*i+1), colWire(3*i+2))
	}
	gateEnd := c.Len()
	// Uninterleave.
	for i := len(transpose) - 1; i >= 0; i-- {
		op := transpose[i]
		inv, _ := op.Kind.Inverse()
		ts := make([]int, len(op.Targets))
		for j, row := range op.Targets {
			ts[j] = colWire(row)
		}
		c.Append(inv, ts...)
	}
	// Recovery in every patch.
	recStart := c.Len()
	rec := Recovery2D()
	for p := 0; p < 3; p++ {
		offset := 9 * p
		c.Remap(rec, func(w int) int { return w + offset })
	}

	in := make([][]int, 3)
	out := make([][]int, 3)
	for p := 0; p < 3; p++ {
		in[p] = []int{9*p + 0, 9*p + 1, 9*p + 2}
		out[p] = []int{9*p + 0, 9*p + 3, 9*p + 6}
	}
	return &Cycle{
		Target:    core.NewTarget("cycle2d-parallel", c, in, out, core.GateCircuit(k)),
		Kind:      k,
		Layout:    layout,
		recStart:  recStart,
		recLen:    rec.Len(),
		gateStart: gateStart,
		gateEnd:   gateEnd,
	}
}
