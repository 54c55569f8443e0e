package lattice

import "revft/internal/gate"

// CrossingOps returns the indices of the routing ops through which a single
// randomizing fault can produce an uncorrectable error pattern:
//
//   - pre-gate swaps touching data bits of two or more different codewords
//     (the fault seeds errors at different code positions in two codewords
//     and the transversal gate spreads each into the other), and
//   - any pre-recovery swap whose target window covers two or more data
//     bits of the same codeword (the fault corrupts that codeword beyond
//     the repetition code's reach directly).
//
// The perpendicular 2D scheme has no such ops; the 1D scheme has the first
// kind; the parallel 2D scheme has both.
func (c *Cycle) CrossingOps() map[int]bool {
	// Track which codeword's data bit (if any) currently occupies each
	// cell.
	owner := make(map[int]int)
	for cw, wires := range c.In {
		for _, cell := range wires {
			owner[cell] = cw
		}
	}
	crossing := make(map[int]bool)
	c.Circuit.Each(func(i int, k gate.Kind, targets []int) {
		if i >= c.recStart {
			return
		}
		isSwap := k == gate.SWAP || k == gate.SWAP3 || k == gate.SWAP3Inv
		if isSwap {
			perCw := make(map[int]int, 2)
			for _, t := range targets {
				if cw, ok := owner[t]; ok {
					perCw[cw]++
				}
			}
			if len(perCw) >= 2 && i < c.gateStart {
				crossing[i] = true
			}
			for _, n := range perCw {
				if n >= 2 {
					crossing[i] = true
				}
			}
		}
		switch k {
		case gate.SWAP:
			swapOwner(owner, targets[0], targets[1])
		case gate.SWAP3:
			swapOwner(owner, targets[0], targets[1])
			swapOwner(owner, targets[1], targets[2])
		case gate.SWAP3Inv:
			swapOwner(owner, targets[1], targets[2])
			swapOwner(owner, targets[0], targets[1])
		}
	})
	return crossing
}

func swapOwner(owner map[int]int, a, b int) {
	oa, oka := owner[a]
	ob, okb := owner[b]
	delete(owner, a)
	delete(owner, b)
	if oka {
		owner[b] = oa
	}
	if okb {
		owner[a] = ob
	}
}
