package lattice

import (
	"fmt"

	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/threshold"
)

// Cycle is a complete local logical-gate cycle: interleave the codewords,
// apply the gate transversally, uninterleave, and run local error recovery
// on every codeword. Its Target's In and Out give each logical operand's
// data cells before and after, and its Name keys the cycle's lane-engine
// fault telemetry ("cycle2d", "cycle1d", "cycle2d-parallel").
type Cycle struct {
	core.Target
	Kind   gate.Kind
	Layout Layout
	// recStart is the op index where the per-codeword recovery sections
	// begin; recLen is the length of one codeword's recovery section.
	recStart int
	recLen   int
	// gateStart and gateEnd bracket the transversal gate ops.
	gateStart, gateEnd int
}

// NewCycle1D builds the §3.2 logical-gate cycle for a 3-bit gate on three
// codewords laid out on a 27-cell line. Every op except the 3-bit
// initializations is nearest-neighbor local.
//
// Per-codeword accounting (the paper's G): 12 SWAP3 to interleave + the
// 3 transversal gate ops + 12 SWAP3 to uninterleave = 27 gates, plus the
// 13-gate recovery, for G = 40 (or 38 neglecting initialization), hence
// thresholds 1/2340 and 1/2109.
func NewCycle1D(k gate.Kind) *Cycle {
	if k.Arity() != 3 {
		panic(fmt.Sprintf("lattice: NewCycle1D needs a 3-bit gate, got %s", k))
	}
	il := NewInterleave1D()
	c := circuit.New(Cycle1DWidth)

	// Interleave.
	for _, op := range il.Ops {
		c.Append(op.Kind, op.Targets...)
	}
	// Transversal gate: for each index i, the gate acts on the adjacent
	// triple holding (b0[i], b1[i], b2[i]).
	gateStart := c.Len()
	for i := 0; i < 3; i++ {
		c.Append(k, il.Triples[i][0], il.Triples[i][1], il.Triples[i][2])
	}
	gateEnd := c.Len()
	// Uninterleave: exact inverse of the interleave schedule.
	for i := len(il.Ops) - 1; i >= 0; i-- {
		op := il.Ops[i]
		inv, _ := op.Kind.Inverse()
		c.Append(inv, op.Targets...)
	}
	// Local recovery on each codeword, remapped onto its segment.
	recStart := c.Len()
	rec := Recovery1D()
	for seg := 0; seg < 3; seg++ {
		offset := seg * Recovery1DWidth
		c.Remap(rec, func(w int) int { return w + offset })
	}

	home := Cycle1DDataCells()
	in := make([][]int, 3)
	for i := range in {
		in[i] = append([]int(nil), home[i]...)
	}
	return &Cycle{
		// The 1D recovery maps cells (0,3,6) back onto themselves, so
		// Out equals In and cycles chain.
		Target:    core.NewTarget("cycle1d", c, in, in, core.GateCircuit(k)),
		Kind:      k,
		Layout:    Line{N: Cycle1DWidth},
		recStart:  recStart,
		recLen:    rec.Len(),
		gateStart: gateStart,
		gateEnd:   gateEnd,
	}
}

// PaperG returns the published per-codeword operation counts for the 1D
// cycle: G = 40 with initialization, 38 without.
func (c *Cycle) PaperG() (withInit, noInit int) {
	switch c.Layout.(type) {
	case Line:
		return threshold.G1DInit, threshold.G1D
	default:
		return threshold.G2DInit, threshold.G2D
	}
}

// CountPerCodeword counts the operations of the cycle that act on logical
// operand cw — the quantity the paper's G approximates. Through the
// interleave/gate/uninterleave phases it tracks the codeword's data bits
// through the SWAP network and counts ops touching them; the codeword's own
// recovery section then contributes its full op count (every recovery gate
// acts on the encoded bit, per §2.2's accounting).
func (c *Cycle) CountPerCodeword(cw int) int {
	cells := make(map[int]bool, len(c.In[cw]))
	for _, cell := range c.In[cw] {
		cells[cell] = true
	}
	count := 0
	c.Circuit.Each(func(i int, k gate.Kind, targets []int) {
		if i >= c.recStart {
			return
		}
		touches := false
		for _, t := range targets {
			if cells[t] {
				touches = true
			}
		}
		if touches {
			count++
		}
		switch k {
		case gate.SWAP:
			swapTracked(cells, targets[0], targets[1])
		case gate.SWAP3:
			swapTracked(cells, targets[0], targets[1])
			swapTracked(cells, targets[1], targets[2])
		case gate.SWAP3Inv:
			swapTracked(cells, targets[1], targets[2])
			swapTracked(cells, targets[0], targets[1])
		}
	})
	return count + c.recLen
}

func swapTracked(cells map[int]bool, a, b int) {
	ca, cb := cells[a], cells[b]
	if ca != cb {
		cells[a], cells[b] = cb, ca
		if !cells[a] {
			delete(cells, a)
		}
		if !cells[b] {
			delete(cells, b)
		}
	}
}
