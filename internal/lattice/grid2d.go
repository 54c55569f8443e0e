package lattice

import (
	"fmt"

	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
)

// The 2D layout (§3.1, Figure 4): each logical bit occupies a 3x3 patch.
// The codeword (q0, q1, q2) runs down the middle column — the "logical bit
// line" — flanked by its six ancillas:
//
//	q8 q2 q5
//	q7 q1 q4
//	q6 q0 q3
//
// Every interaction of the Figure 2 recovery is a straight run of three
// cells in this patch (encode gates are rows, decode gates are columns), so
// 2D recovery needs no SWAPs at all.

// patchPoints returns the coordinate of each q-wire of a patch whose lower-left
// corner is at (ox, oy), indexed by q number.
func patchPoints(ox, oy int) []Point {
	return []Point{
		{ox + 1, oy + 2}, // q0
		{ox + 1, oy + 1}, // q1
		{ox + 1, oy + 0}, // q2
		{ox + 2, oy + 2}, // q3
		{ox + 2, oy + 1}, // q4
		{ox + 2, oy + 0}, // q5
		{ox + 0, oy + 2}, // q6
		{ox + 0, oy + 1}, // q7
		{ox + 0, oy + 0}, // q8
	}
}

// Patch2DLayout places the nine wires of a single recovery patch per
// Figure 4.
func Patch2DLayout() Placed {
	return Placed{Points: patchPoints(0, 0)}
}

// Recovery2D returns the 2D local recovery: it is exactly the Figure 2
// circuit — on the Figure 4 patch every one of its gates is already a local
// operation, including the two 3-bit initializations (each ancilla column
// is a straight run of three cells).
func Recovery2D() *circuit.Circuit {
	c := circuit.New(core.RecoveryWidth)
	// Initialize the ancilla columns (right column q3,q4,q5; left column
	// q6,q7,q8) — vertical runs of three.
	c.Init3(3, 4, 5)
	c.Init3(6, 7, 8)
	// Encode along rows: (q6,q0,q3), (q7,q1,q4), (q8,q2,q5).
	c.MAJInv(0, 3, 6)
	c.MAJInv(1, 4, 7)
	c.MAJInv(2, 5, 8)
	// Decode along columns: middle (q0,q1,q2), right (q3,q4,q5), left
	// (q6,q7,q8).
	c.MAJ(0, 1, 2)
	c.MAJ(3, 4, 5)
	c.MAJ(6, 7, 8)
	return c
}

// Perpendicular interleave (§3.1): three patches side by side along x; the
// outer data columns travel across the two ancilla columns separating them
// from the middle patch — two SWAPs per bit, 12 SWAPs total, 6 per moving
// codeword, or one SWAP3 per bit (3 per codeword).
const (
	// Interleave2DPerpSwaps is the total SWAP count of the perpendicular
	// scheme.
	Interleave2DPerpSwaps = 12
	// Interleave2DParSwaps is the total SWAP count of the parallel scheme.
	Interleave2DParSwaps = 9
	// Interleave2DMaxPerCodeword bounds SWAPs touching one codeword in
	// either scheme.
	Interleave2DMaxPerCodeword = 6
	// Cycle2DWidth is the wire count of a three-patch cycle.
	Cycle2DWidth = 27
)

// cycle2DLayout places three Figure 4 patches side by side along x. Wire
// numbering: patch p's q-wire i is wire 9p+i.
func cycle2DLayout() Placed {
	var pts []Point
	for p := 0; p < 3; p++ {
		pts = append(pts, patchPoints(3*p, 0)...)
	}
	return Placed{Points: pts}
}

// NewCycle2D builds the §3.1 logical-gate cycle for a 3-bit gate on three
// codewords in adjacent 2D patches, using the perpendicular interleave:
//
//  1. SWAP3 each data bit of the outer patches two cells inward, making
//     each transversal triple a straight horizontal run;
//  2. apply the gate transversally (three local ops);
//  3. SWAP3 the outer codewords home;
//  4. run the (swap-free) 2D recovery in every patch.
//
// Per-codeword accounting: 3 SWAP3 + 3 gate ops + 3 SWAP3 + 8 recovery ops.
// The paper reports G = 16 with initialization and 14 without (thresholds
// 1/360 and 1/273); our literal recount gives one more (see EXPERIMENTS.md).
func NewCycle2D(k gate.Kind) *Cycle {
	if k.Arity() != 3 {
		panic(fmt.Sprintf("lattice: NewCycle2D needs a 3-bit gate, got %s", k))
	}
	layout := cycle2DLayout()
	c := circuit.New(Cycle2DWidth)

	// Wire helpers: patch p's q-wire i.
	q := func(p, i int) int { return 9*p + i }

	// Interleave perpendicular to the logic line. Data bit q_i of patch 0
	// sits at x=1 in its patch; moving it two cells right (past its own
	// right ancilla at x=2 and patch 1's left ancilla at x=3) is one SWAP3
	// along its row. Rows: q0 row contains (q6,q0,q3) of each patch.
	//
	// Patch 0's data bits move right: SWAP3(q0, q3 of patch 0, q6 of patch 1)
	// rotates the row segment so the data bit lands on patch 1's left
	// ancilla cell.
	rightAncilla := [3]int{3, 4, 5} // q3,q4,q5 share rows with q0,q1,q2
	leftAncilla := [3]int{6, 7, 8}  // q6,q7,q8 share rows with q0,q1,q2
	for i := 0; i < 3; i++ {
		// b0's bit i: cells x=1,2 of patch 0 and x=0 of patch 1.
		c.Swap3(q(0, i), q(0, rightAncilla[i]), q(1, leftAncilla[i]))
		// b2's bit i moves left: cells x=0 of patch 2... rotate so the
		// data bit (x=1 of patch 2) lands on patch 1's right ancilla.
		c.Append(gate.SWAP3Inv, q(1, rightAncilla[i]), q(2, leftAncilla[i]), q(2, i))
	}
	// Transversal gate: triple i now occupies the straight run
	// (patch1-left-ancilla, patch1-data, patch1-right-ancilla) on row i,
	// holding (b0[i], b1[i], b2[i]).
	gateStart := c.Len()
	for i := 0; i < 3; i++ {
		c.Append(k, q(1, leftAncilla[i]), q(1, i), q(1, rightAncilla[i]))
	}
	gateEnd := c.Len()
	// Uninterleave: inverse rotations.
	for i := 2; i >= 0; i-- {
		c.Swap3(q(1, rightAncilla[i]), q(2, leftAncilla[i]), q(2, i))
		c.Append(gate.SWAP3Inv, q(0, i), q(0, rightAncilla[i]), q(1, leftAncilla[i]))
	}
	// Local recovery in every patch.
	recStart := c.Len()
	rec := Recovery2D()
	for p := 0; p < 3; p++ {
		offset := 9 * p
		c.Remap(rec, func(w int) int { return w + offset })
	}

	in := make([][]int, 3)
	out := make([][]int, 3)
	for p := 0; p < 3; p++ {
		in[p] = []int{q(p, 0), q(p, 1), q(p, 2)}
		// The Figure 2 recovery rotates the logical bit line (footnote 3):
		// outputs land on q0, q3, q6 — the patch's top row.
		out[p] = []int{q(p, 0), q(p, 3), q(p, 6)}
	}
	return &Cycle{
		Target:    core.NewTarget("cycle2d", c, in, out, core.GateCircuit(k)),
		Kind:      k,
		Layout:    layout,
		recStart:  recStart,
		recLen:    rec.Len(),
		gateStart: gateStart,
		gateEnd:   gateEnd,
	}
}

// ParallelInterleave2D generates the parallel-to-the-logic-line interleave
// of §3.1 as an elementary swap schedule: three patches stacked along the
// logical line make the three codewords linearly adjacent on one column
// (Figure 6's situation), and the 3x3 transpose that interleaves them costs
// nine adjacent SWAPs, at most six touching any one codeword.
//
// The swaps returned are along the shared data column, expressed as row
// indices 0–8 (top patch first).
func ParallelInterleave2D() [][2]int {
	// Identical inversion structure to the Recovery1D interleave: sort
	// [A A A B B B C C C] into [A B C A B C A B C].
	return [][2]int{
		{2, 3}, {3, 4},
		{5, 6}, {6, 7},
		{1, 2},
		{4, 5}, {5, 6},
		{3, 4}, {2, 3},
	}
}

// ParallelInterleaveSwapsTouching counts how many swaps of the parallel
// schedule touch the given codeword (0, 1 or 2).
func ParallelInterleaveSwapsTouching(codeword int) int {
	// Track which rows hold the codeword's bits: rows 3c..3c+2 initially.
	rows := make(map[int]bool, 3)
	for i := 0; i < 3; i++ {
		rows[3*codeword+i] = true
	}
	count := 0
	for _, s := range ParallelInterleave2D() {
		if rows[s[0]] || rows[s[1]] {
			count++
		}
		a, b := rows[s[0]], rows[s[1]]
		if a != b {
			rows[s[0]], rows[s[1]] = b, a
		}
	}
	return count
}
