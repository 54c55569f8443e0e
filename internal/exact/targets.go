package exact

import (
	"revft/internal/circuit"
	"revft/internal/core"
)

// Recovery returns the target for the paper's Figure 2 recovery circuit
// E: one logical bit encoded on the data wires, recovered onto the output
// wires, ideal behaviour the identity. Its full enumeration (2·9^8 leaf
// executions) is what proves §2.2's single-fault claim exhaustively.
func Recovery() core.Target {
	return core.NewTarget("recovery", core.Recovery(),
		[][]int{append([]int(nil), core.RecoveryDataWires...)},
		[][]int{append([]int(nil), core.RecoveryOutputWires...)},
		circuit.New(1))
}

// Gadget returns a fault-tolerant logical gate's target (the extended
// rectangle of §2.2). Level-1 gadgets (27 ops) enumerate fully up to
// weight 2–3; deeper levels need tighter MaxWeight cutoffs.
func Gadget(g *core.Gadget) core.Target { return g.Target }
