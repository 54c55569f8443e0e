package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"revft/internal/adder"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
)

// Engine byte pins: the lane engine's exact output on the circuits and
// noise models the experiments run, recorded so that a rewrite of the
// compiler or interpreter that moves any RNG draw, any fault's lane or
// any kernel bit fails here before it moves a sweep's bytes. The golden
// sweep pins (package exp) stop at 2000 trials of one-sampler models;
// these reach level 2, a two-sampler model and a p = 0 init point.

// pinTarget is one circuit of the engine pins with the input its
// estimates run on.
type pinTarget struct {
	name string
	t    Target
	in   Input
}

func pinTargets() []pinTarget {
	logical, l := adder.New(4)
	var in uint64
	a, b := uint64(0b1011), uint64(0b0110)
	for i := 0; i < 4; i++ {
		in |= (a >> uint(i) & 1) << uint(l.A[i])
		in |= (b >> uint(i) & 1) << uint(l.B[i])
	}
	return []pinTarget{
		{"gadget1", NewGadget(gate.MAJ, 1).Target, Uniform},
		{"gadget2", NewGadget(gate.MAJ, 2).Target, Uniform},
		{"adder", CompileModule(logical, 1).Target(), Fixed(in)},
	}
}

var pinModels = []struct {
	name string
	m    noise.Model
}{
	{"uniform", noise.Uniform(0.03)},
	{"iid", noise.IID{Gate: 0.02, Init: 0.05}},
	{"perfectinit", noise.PerfectInit(0.04)},
}

// TestEngineSuccessCountsPinned pins the success count of 2^16 trials at
// seed 99 for every (target, model, K) of the engine pins. The level-1
// gadget's batches compact (walked share below 0.375 at d = 2), and a
// compacted estimate draws each block's lanes whatever K, so its three
// widths count alike; the others walk every lane.
func TestEngineSuccessCountsPinned(t *testing.T) {
	want := map[string]int{
		"gadget1/uniform/1":     711,
		"gadget1/uniform/4":     711,
		"gadget1/uniform/8":     711,
		"gadget1/iid/1":         439,
		"gadget1/iid/4":         439,
		"gadget1/iid/8":         439,
		"gadget1/perfectinit/1": 982,
		"gadget1/perfectinit/4": 982,
		"gadget1/perfectinit/8": 982,
		"gadget2/uniform/1":     53,
		"gadget2/uniform/4":     51,
		"gadget2/uniform/8":     52,
		"gadget2/iid/1":         22,
		"gadget2/iid/4":         19,
		"gadget2/iid/8":         21,
		"gadget2/perfectinit/1": 83,
		"gadget2/perfectinit/4": 73,
		"gadget2/perfectinit/8": 79,
		"adder/uniform/1":       20400,
		"adder/uniform/4":       20391,
		"adder/uniform/8":       20438,
		"adder/iid/1":           15406,
		"adder/iid/4":           15400,
		"adder/iid/8":           15443,
		"adder/perfectinit/1":   22649,
		"adder/perfectinit/4":   22433,
		"adder/perfectinit/8":   22577,
	}
	const trials, seed = 1 << 16, 99
	for _, pt := range pinTargets() {
		for _, md := range pinModels {
			for _, words := range []int{1, 4, 8} {
				key := fmt.Sprintf("%s/%s/%d", pt.name, md.name, words)
				res, err := pt.t.Estimate(context.Background(), pt.in, Noisy(md.m), words, 0, trials, 2, seed)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if res.Trials != trials {
					t.Fatalf("%s: ran %d trials, want %d", key, res.Trials, trials)
				}
				if res.Successes != want[key] {
					t.Errorf("%s: %d successes, want %d", key, res.Successes, want[key])
				}
			}
		}
	}
}

// TestEngineRunStatePinned pins WideProgram.Run itself on programs
// compiled for every wire: the fault count and an FNV-1a hash of the
// whole final state over four consecutive batches, each started from a
// random state so every wire's words take part.
func TestEngineRunStatePinned(t *testing.T) {
	want := map[string]string{
		"gadget1/uniform/1":     "210:9f1c4dfbd7b6afb4",
		"gadget1/uniform/4":     "836:8bee2d79c6dd53ff",
		"gadget1/uniform/8":     "1679:a273bafcfe3513f1",
		"gadget1/iid/1":         "193:379691898f43a358",
		"gadget1/iid/4":         "724:a6edc58f37460cd0",
		"gadget1/iid/8":         "1459:50d90d46d9a33808",
		"gadget2/uniform/1":     "5581:1cbf5608c4184719",
		"gadget2/uniform/4":     "22236:750a089f2c1cf428",
		"gadget2/uniform/8":     "44928:b82e3d6c6ecb5c55",
		"gadget2/iid/1":         "5076:cc582ab7946d41c8",
		"gadget2/iid/4":         "20289:c98638646e8fac26",
		"gadget2/iid/8":         "40989:c4c248a0ae85b876",
		"adder/uniform/1":       "2947:68a4ddc3383b2d0f",
		"adder/uniform/4":       "11806:c380f6f81edfb0c1",
		"adder/uniform/8":       "23641:700b159aeed3461e",
		"adder/iid/1":           "2600:dac89659ec3ec667",
		"adder/iid/4":           "10411:b119d580e5179da5",
		"adder/iid/8":           "20850:6a50b735797bcdf7",
		"gadget1/perfectinit/1": "220:5effc7a563b8969d",
		"gadget1/perfectinit/4": "881:83d107eed0b4e584",
		"gadget1/perfectinit/8": "1733:8d204e12b70aefaf",
		"gadget2/perfectinit/1": "5614:3b48b2fdcb3f1c35",
		"gadget2/perfectinit/4": "22315:4b1fa902fe6cb15f",
		"gadget2/perfectinit/8": "45086:4b2085a25656d04c",
		"adder/perfectinit/1":   "3093:937f01df7b607f46",
		"adder/perfectinit/4":   "12348:e5f7bab59fbae8b9",
		"adder/perfectinit/8":   "24679:22abe0dca1abd26e",
	}
	for _, pt := range pinTargets() {
		for _, md := range pinModels {
			for _, words := range []int{1, 4, 8} {
				key := fmt.Sprintf("%s/%s/%d", pt.name, md.name, words)
				prog := lanes.CompileWide(pt.t.Circuit, md.m, words)
				st := lanes.NewWideState(pt.t.Circuit.Width(), words)
				init, r := rng.New(5), rng.New(6)
				h := fnv.New64a()
				faults := 0
				var buf [8]byte
				for batch := 0; batch < 4; batch++ {
					for i := range st.W {
						st.W[i] = init.Uint64()
					}
					faults += prog.Run(st, r)
					for _, w := range st.W {
						binary.LittleEndian.PutUint64(buf[:], w)
						h.Write(buf[:])
					}
				}
				if got := fmt.Sprintf("%d:%016x", faults, h.Sum64()); got != want[key] {
					t.Errorf("%s: faults:hash %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
