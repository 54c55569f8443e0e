// Nearestneighbor: fault tolerance when gates only reach adjacent bits —
// the paper's §3, where most proposed nano-scale hardware lives.
//
// The program builds the complete local logical-gate cycles in one and two
// dimensions, verifies their locality mechanically, runs the exhaustive
// single-fault audits, and measures the level-1 logical error rates of both
// schemes under the paper's noise model.
package main

import (
	"context"
	"fmt"
	"log"

	"revft"
)

func main() {
	fmt.Println("Near-neighbor fault tolerance (paper §3)")
	fmt.Println()

	// --- 1D ---
	fmt.Println("1D local recovery (Figure 7): 6 MAJ + 9 SWAPs (4 SWAP3 + 1 SWAP) + 2 INIT3")
	fmt.Println(revft.Recovery1D().Render())

	c1 := revft.NewCycle1D(revft.MAJ)
	if err := revft.CheckLocal(c1.Circuit, c1.Layout, revft.InitExempt); err != nil {
		fmt.Println("1D locality violation:", err)
		return
	}
	fmt.Printf("1D full cycle: %d ops on a %d-cell line — all nearest-neighbor. G = %d per moving codeword ⇒ ρ₁ = 1/2340.\n",
		c1.Circuit.Len(), c1.Circuit.Width(), c1.CountPerCodeword(2))
	a1 := c1.AuditSingleFaults()
	fmt.Printf("exhaustive single-fault audit: %d of %d injections flip a logical output\n",
		len(a1.Failures), a1.Cases)
	fmt.Println("(all failures are data-data crossing swaps before the transversal gate — see EXPERIMENTS.md)")
	fmt.Println()

	// --- 2D ---
	c2 := revft.NewCycle2D(revft.MAJ)
	if err := revft.CheckLocal(c2.Circuit, c2.Layout, nil); err != nil {
		fmt.Println("2D locality violation:", err)
		return
	}
	fmt.Printf("2D full cycle: %d ops on three 3×3 patches — every op (even init) a straight run.\n",
		c2.Circuit.Len())
	a2 := c2.AuditSingleFaults()
	fmt.Printf("exhaustive single-fault audit: %d of %d injections flip a logical output (strictly fault tolerant)\n",
		len(a2.Failures), a2.Cases)
	fmt.Println()

	// --- measured logical error rates ---
	fmt.Printf("%-10s  %-14s  %-14s\n", "g", "2D level-1", "1D level-1")
	const trials = 80000
	for i, g := range []float64{3e-4, 1e-3, 3e-3} {
		m := revft.UniformNoise(g)
		e2 := cycleError(c2, m, trials, uint64(2*i+1))
		e1 := cycleError(c1, m, trials, uint64(2*i+2))
		fmt.Printf("%-10.0e  %-14.3e  %-14.3e\n", g, e2.Rate(), e1.Rate())
	}
	fmt.Println()
	fmt.Println("2D scales as g² (strict single-fault tolerance); 1D retains a linear")
	fmt.Println("component from its crossing swaps. The paper's remedy for weak 1D")
	fmt.Println("thresholds is hybrid concatenation (Table 2): a 27-bit-wide lattice")
	fmt.Printf("recovers %d%% of the full 2D threshold.\n",
		int(100*revft.HybridThreshold(3, revft.Threshold(revft.G1D), revft.Threshold(revft.G2D))/revft.Threshold(revft.G2D)))
}

func cycleError(c *revft.Cycle, m revft.NoiseModel, trials int, seed uint64) revft.Estimate {
	res, err := c.Estimate(context.Background(), revft.UniformInput, revft.NoisyRun(m), 0, 0, trials, 0, seed)
	if err != nil {
		log.Fatal(err)
	}
	return res.Bernoulli
}
