package lanes_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"revft/internal/adder"
	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
)

// The producer pins: digests of everything Draw, Run and RunPlan return
// or leave behind — each batch's live fault list, fault counts, final
// states and the generator's next draw — on the circuits and noise
// models the threshold sweep and the golden sweeps run. A rewrite of the
// sampler, the walk or the generator that moves any random bit, any
// fault event or any state bit fails here.

// digestProgram is one program of the producer pins.
type digestProgram struct {
	name string
	c    *circuit.Circuit
	outs []int // nil: every wire
}

func digestPrograms() []digestProgram {
	bare, _ := adder.New(4)
	g1, g2 := core.NewGadget(gate.MAJ, 1), core.NewGadget(gate.MAJ, 2)
	return []digestProgram{
		{"gadget1", g1.Circuit, outWires(g1.Target)},
		{"gadget2", g2.Circuit, outWires(g2.Target)},
		{"adder", bare, nil},
	}
}

// digestModels are ρ/10 and ρ/2 of the threshold sweep, a two-sampler
// model and the every-slot-faults edge.
var digestModels = []struct {
	name string
	m    noise.Model
}{
	{"rho/10", noise.Uniform(0.000606)},
	{"rho/2", noise.Uniform(0.00303)},
	{"iid", noise.IID{Gate: 0.002, Init: 0.01}},
	{"p=1", noise.Uniform(1)},
}

// producerDigest runs batches batches of prog three ways from seed —
// Run, Draw, and RunPlan of Draw's faults — on random start states and
// hashes every output.
func producerDigest(prog *lanes.WideProgram, width, batches int, seed uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	words := prog.Words()
	a, b := lanes.NewWideState(width, words), lanes.NewWideState(width, words)
	init, ra, rb := rng.New(seed), rng.New(seed+1), rng.New(seed+1)
	var live []lanes.Fault
	for batch := 0; batch < batches; batch++ {
		for i := range a.W {
			a.W[i] = init.Uint64()
			b.W[i] = a.W[i]
		}
		put(uint64(prog.Run(a, ra)))
		for _, w := range a.W {
			put(w)
		}
		put(ra.Uint64())
		var n int
		live, n = prog.Draw(rb, live[:0])
		put(uint64(n))
		put(uint64(len(live)))
		for _, f := range live {
			put(uint64(f.Point)<<32 | uint64(f.Lane)<<8 | uint64(f.Bits))
		}
		put(rb.Uint64())
		prog.RunPlan(b, live)
		for _, w := range b.W {
			put(w)
		}
	}
	return h.Sum64()
}

// TestProducerDigestPinned pins the producer digest of four batches at
// seed 2026 for every (program, model, K) of the pins. The digests were
// recorded on the engine whose producer stepped its generator through
// memory, so they show the register-held one draws the same bits. The
// bare adder's were re-recorded when each of its UMA triples stopped
// compiling to one three-point kernel, which had mapped replacement bits
// onto its wires differently; no other program had such a triple.
func TestProducerDigestPinned(t *testing.T) {
	want := map[string]uint64{
		"gadget1/rho/10/1": 0xbb78b623c6269242,
		"gadget1/rho/10/8": 0xea3ba3ea8cd6c375,
		"gadget1/rho/2/1":  0x5902722fa474ae3e,
		"gadget1/rho/2/8":  0xcf42c4c2cfb6d0fb,
		"gadget1/iid/1":    0xcdf06b11219c4c5c,
		"gadget1/iid/8":    0x6d292d60d4371879,
		"gadget1/p=1/1":    0x75f9f34eb0b31bf6,
		"gadget1/p=1/8":    0x96f06b0b7b3c9688,
		"gadget2/rho/10/1": 0xe7b1491438b64e0a,
		"gadget2/rho/10/8": 0x4f1c1cbdfb2fa577,
		"gadget2/rho/2/1":  0xe9bf5db9e86c186c,
		"gadget2/rho/2/8":  0x021eae9aeb313a71,
		"gadget2/iid/1":    0x8333e82578c05373,
		"gadget2/iid/8":    0x2ec620c10bf31b7a,
		"gadget2/p=1/1":    0x031564bc30168e64,
		"gadget2/p=1/8":    0xc3fbbd45e2a90ca0,
		"adder/rho/10/1":   0xa66c16b92d495af4,
		"adder/rho/10/8":   0x943d39340ec0a5fb,
		"adder/rho/2/1":    0x7fca2cc923e5f6d1,
		"adder/rho/2/8":    0x683c3b71dd3271e1,
		"adder/iid/1":      0x44c0501cff520334,
		"adder/iid/8":      0x447c68fa82baa092,
		"adder/p=1/1":      0x44ac5e03cd777895,
		"adder/p=1/8":      0xdd665dc6a91b7a15,
	}
	for _, pg := range digestPrograms() {
		for _, dm := range digestModels {
			for _, words := range []int{1, 8} {
				key := fmt.Sprintf("%s/%s/%d", pg.name, dm.name, words)
				prog := lanes.CompileWideFor(pg.c, dm.m, words, pg.outs)
				if got := producerDigest(prog, pg.c.Width(), 4, 2026); got != want[key] {
					t.Errorf("%s: digest %#016x, want %#016x", key, got, want[key])
				}
			}
		}
	}
}
