// Quickstart: protect one bit with the paper's recovery circuit and watch
// the fault-tolerance threshold at work.
//
// The program estimates, by Monte Carlo, the logical error rate of a single
// fault-tolerant MAJ gate (transversal gate + recovery, Figure 3 at level 1)
// across a sweep of physical gate error rates, and compares it against the
// bare gate and the paper's Equation 1 bound 3·C(G,2)·g².
package main

import (
	"context"
	"fmt"
	"log"

	"revft"
)

func main() {
	fmt.Println("Reversible fault-tolerant logic — quickstart")
	fmt.Println()
	fmt.Println("The paper's recovery circuit (Figure 2):")
	fmt.Println(revft.Recovery().Render())

	gadget := revft.NewGadget(revft.MAJ, 1)
	fmt.Printf("A fault-tolerant MAJ at level 1 costs %d physical ops on %d bits.\n\n",
		gadget.Circuit.Len(), gadget.Circuit.Width())

	rho := revft.Threshold(revft.GNonLocalInit)
	fmt.Printf("Threshold (G = %d, init counted): ρ = 1/165 ≈ %.4f\n\n", revft.GNonLocalInit, rho)

	fmt.Printf("%-10s  %-12s  %-12s  %s\n", "g", "bare gate", "FT level 1", "Eq.1 bound")
	const trials = 100000
	for i, g := range []float64{1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 2.5e-1} {
		est, err := gadget.Estimate(context.Background(), revft.UniformInput, revft.NoisyRun(revft.UniformNoise(g)), 0, 0, trials, 0, uint64(i+1))
		if err != nil {
			log.Fatal(err)
		}
		bound := 3 * 55 * g * g // 3·C(11,2)·g²
		verdict := ""
		if est.Rate() < g {
			verdict = "  ← FT wins"
		}
		fmt.Printf("%-10.0e  %-12.0e  %-12.3e  %.3e%s\n", g, g, est.Rate(), bound, verdict)
	}

	fmt.Println()
	fmt.Println("Below ρ the encoded gate beats the bare gate, and concatenating levels")
	fmt.Println("suppresses errors doubly exponentially (Equation 2). The analytic ρ is")
	fmt.Println("a conservative lower bound — the paper notes its circuits are \"an")
	fmt.Println("existence proof\" — so the measured pseudo-threshold, where FT stops")
	fmt.Println("winning, sits noticeably higher.")
}
