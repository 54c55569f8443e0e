// Package revft is a library for reversible fault-tolerant logic,
// reproducing Boykin & Roychowdhury, "Reversible Fault-Tolerant Logic"
// (DSN 2005, arXiv:cs/0504010).
//
// The library simulates classical reversible computers built from noisy
// 3-bit gates — every gate application randomizes the bits it touches with
// probability g — and implements the paper's fault-tolerance machinery on
// top:
//
//   - the reversible majority gate MAJ and its gate set (Table 1, Figure 1);
//   - the repetition-code error-recovery circuit (Figure 2) and its
//     recursive concatenation into fault-tolerant logical gates with
//     threshold ρ = 1/(3·C(G,2)) (Figure 3, Equations 1–3);
//   - near-neighbor variants on 1D lines and 2D lattices with SWAP3-based
//     routing (Figures 4–7) and hybrid 2D/1D concatenation (Table 2);
//   - entropy and heat accounting for noisy reversible operation (§4),
//     including the 3/2-bit NAND simulation of footnote 4 and algorithmic
//     cooling (refs. [3, 5, 15]);
//   - Bennett's garbage-free compilation of irreversible logic (ref. [2])
//     and BFS-exact reversible circuit synthesis;
//   - the von Neumann NAND-multiplexing baseline the paper compares
//     against.
//
// # Quick start
//
//	g := revft.NewGadget(revft.MAJ, 1)          // FT MAJ at level 1
//	m := revft.UniformNoise(1e-3)               // paper's error model
//	// Monte Carlo g_logical: uniform inputs, scalar engine (0 lane words),
//	// 100000 trials from trial 0, GOMAXPROCS workers, seed 1.
//	est, err := g.Estimate(ctx, revft.UniformInput, revft.NoisyRun(m), 0, 0, 100000, 0, 1)
//	if err != nil {
//		return err
//	}
//	fmt.Println(est)                            // well below 1e-3
//
// Or compile a whole circuit:
//
//	add, layout := revft.NewAdder(8)            // Cuccaro ripple-carry adder
//	mod := revft.CompileModule(add, 1)          // level-1 FT implementation
//	_ = layout
//
// The cmd/revft-tables, cmd/revft-mc and cmd/revft-circuits binaries
// regenerate every table and figure of the paper; see EXPERIMENTS.md for
// the paper-vs-measured record.
package revft
