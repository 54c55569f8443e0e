package lanes

import (
	"math"
	"testing"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/code"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
)

// Tests of the 64-lane (K = 1) engine and of the sampler and coder every
// block width shares; wide_test.go covers what is specific to K > 1.

// TestEvalMatchesGateTables packs every local input state of every gate
// into distinct lanes and checks the word kernel against the lookup table,
// at K = 1 and in the second word of a K = 2 block.
func TestEvalMatchesGateTables(t *testing.T) {
	for _, k := range gate.Kinds() {
		arity := k.Arity()
		n := 1 << uint(arity)
		for _, words := range []int{1, 2} {
			// Lane j of the last word carries local input j: bit j of
			// w[i][words-1] is bit i of j.
			w := make([][]uint64, arity)
			for i := range w {
				w[i] = make([]uint64, words)
				for j := 0; j < n; j++ {
					w[i][words-1] |= uint64(j) >> uint(i) & 1 << uint(j)
				}
			}
			EvalWide(k, w)
			for j := 0; j < n; j++ {
				var got uint64
				for i := 0; i < arity; i++ {
					got |= w[i][words-1] >> uint(j) & 1 << uint(i)
				}
				if want := k.Eval(uint64(j)); got != want {
					t.Errorf("%s kernel (K=%d): input %0*b -> %0*b, table says %0*b",
						k, words, arity, j, arity, got, arity, want)
				}
			}
		}
	}
}

// randomCircuit builds a random circuit over every gate kind.
func randomCircuit(r *rng.RNG, width, ops int) *circuit.Circuit {
	kinds := gate.Kinds()
	c := circuit.New(width)
	for i := 0; i < ops; i++ {
		k := kinds[r.Intn(len(kinds))]
		perm := r.Perm(width)
		c.Append(k, perm[:k.Arity()]...)
	}
	return c
}

// scalarLanes runs c on every lane of word k of st's initial values with
// the scalar table-driven evaluator and returns the expected words.
func scalarLanes(c *circuit.Circuit, st WideState, k int) []uint64 {
	width := c.Width()
	want := make([]uint64, width)
	for lane := 0; lane < 64; lane++ {
		sc := bitvec.New(width)
		for w := 0; w < width; w++ {
			sc.Set(w, st.Wire(w)[k]>>uint(lane)&1 == 1)
		}
		c.Run(sc)
		for w := 0; w < width; w++ {
			if sc.Get(w) {
				want[w] |= 1 << uint(lane)
			}
		}
	}
	return want
}

// TestRunNoiselessMatchesScalar runs random circuits on random per-lane
// states with the 64-lane engine and the scalar evaluator and demands
// bit-identical results.
func TestRunNoiselessMatchesScalar(t *testing.T) {
	const width = 8
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		c := randomCircuit(r, width, 40)
		st := NewState(width)
		for i := range st.W {
			st.W[i] = r.Uint64()
		}
		want := scalarLanes(c, st, 0)
		Compile(c, noise.Noiseless).RunNoiseless(st)
		for w := 0; w < width; w++ {
			if st.W[w] != want[w] {
				t.Fatalf("circuit %d wire %d: lanes %064b, scalar %064b", trial, w, st.W[w], want[w])
			}
		}
	}
}

// TestRunNoiselessModelFaultFree checks that Run under the noiseless model
// is exactly RunNoiseless and reports zero fault events.
func TestRunNoiselessModelFaultFree(t *testing.T) {
	c := circuit.New(3).MAJ(0, 1, 2).Swap3(0, 1, 2).MAJInv(0, 1, 2)
	prog := Compile(c, noise.Noiseless)
	a, b := NewState(3), NewState(3)
	r := rng.New(3)
	for w := range a.W {
		a.W[w] = r.Uint64()
		b.W[w] = a.W[w]
	}
	if faults := prog.Run(a, rng.New(4)); faults != 0 {
		t.Fatalf("noiseless Run reported %d faults", faults)
	}
	prog.RunNoiseless(b)
	for w := range a.W {
		if a.W[w] != b.W[w] {
			t.Fatalf("wire %d: noisy-path %x, noiseless %x", w, a.W[w], b.W[w])
		}
	}
}

// faultMask runs one Init3 at fault probability p on a 64-lane block
// whose wires start all-ones and returns the lanes left nonzero. Init3
// clears every lane, so a nonzero lane faulted; a faulting lane stays
// zero with probability 1/8, so each lane is set with probability 7p/8,
// independently — an observable Bernoulli mask of the engine's sampler.
func faultMask(prog *WideProgram, st WideState, r *rng.RNG) (uint64, int) {
	for i := range st.W {
		st.W[i] = ^uint64(0)
	}
	n := prog.Run(st, r)
	return st.W[0] | st.W[1] | st.W[2], n
}

// TestBernoulliMaskEdges pins the sampler's clamping at the probability
// edges: p <= 0 never faults, p >= 1 faults every lane.
func TestBernoulliMaskEdges(t *testing.T) {
	c := circuit.New(1).NOT(0)
	r := rng.New(5)
	for _, tc := range []struct {
		p    float64
		want int
	}{{0, 0}, {-1, 0}, {1, 64}, {2, 64}} {
		prog := Compile(c, noise.IID{Gate: tc.p})
		for i := 0; i < 100; i++ {
			if n := prog.Run(NewState(1), r); n != tc.want {
				t.Fatalf("p=%v: %d fault events in a 64-lane block, want %d", tc.p, n, tc.want)
			}
		}
	}
}

// TestBernoulliMaskRate checks the per-lane fault fraction and that no
// lane is favored (the geometric-skip construction must stay uniform
// across positions).
func TestBernoulliMaskRate(t *testing.T) {
	c := circuit.New(3).Init3(0, 1, 2)
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5, 0.9} {
		prog := Compile(c, noise.Uniform(p))
		st := NewState(3)
		r := rng.New(uint64(1000 * p))
		const draws = 200000
		perLane := make([]int, 64)
		total := 0
		for i := 0; i < draws; i++ {
			m, n := faultMask(prog, st, r)
			total += n
			for l := range perLane {
				perLane[l] += int(m >> uint(l) & 1)
			}
		}
		n := float64(draws * 64)
		rate := float64(total) / n
		tol := 4 * math.Sqrt(p*(1-p)/n) // ±4σ
		if math.Abs(rate-p) > tol {
			t.Errorf("p=%v: overall rate %v (tolerance %v)", p, rate, tol)
		}
		q := 7 * p / 8
		laneTol := 5 * math.Sqrt(q*(1-q)/float64(draws))
		for l, c := range perLane {
			if lr := float64(c) / draws; math.Abs(lr-q) > laneTol {
				t.Errorf("p=%v: lane %d observed rate %v, want %v ± %v", p, l, lr, q, laneTol)
			}
		}
	}
}

// TestRunFaultRate checks that fault events occur at the modeled per-op
// per-lane rate.
func TestRunFaultRate(t *testing.T) {
	const g = 0.05
	c := circuit.New(3)
	for i := 0; i < 50; i++ {
		c.MAJ(0, 1, 2)
	}
	prog := Compile(c, noise.Uniform(g))
	r := rng.New(7)
	total := 0
	const batches = 400
	for i := 0; i < batches; i++ {
		total += prog.Run(NewState(3), r)
	}
	n := float64(batches * 50 * 64)
	rate := float64(total) / n
	if tol := 4 * math.Sqrt(g*(1-g)/n); math.Abs(rate-g) > tol {
		t.Fatalf("fault rate %v, want %v ± %v", rate, g, tol)
	}
}

// TestRunAlwaysFaultsUniform mirrors sim.TestRunNoisyAlwaysFaults: with
// g = 1 every lane faults on the single op and the 3-bit outputs must be
// uniform over the 8 local states.
func TestRunAlwaysFaultsUniform(t *testing.T) {
	c := circuit.New(3).MAJ(0, 1, 2)
	prog := Compile(c, noise.Uniform(1))
	r := rng.New(9)
	counts := make(map[uint64]int)
	const batches = 200
	for i := 0; i < batches; i++ {
		st := NewState(3)
		if faults := prog.Run(st, r); faults != 64 {
			t.Fatalf("g=1 batch had %d fault events, want 64", faults)
		}
		for lane := 0; lane < 64; lane++ {
			var s uint64
			for w := 0; w < 3; w++ {
				s |= st.W[w] >> uint(lane) & 1 << uint(w)
			}
			counts[s]++
		}
	}
	n := batches * 64
	if len(counts) != 8 {
		t.Fatalf("faulty outputs cover %d states, want 8", len(counts))
	}
	for s, c := range counts {
		f := float64(c) / float64(n)
		if math.Abs(f-0.125) > 0.02 {
			t.Fatalf("state %03b frequency %v, want ~1/8", s, f)
		}
	}
}

// TestEncodeDecode round-trips codewords through the lane-wise coder and
// checks single-error correction lane by lane.
func TestEncodeDecode(t *testing.T) {
	r := rng.New(13)
	for level := 0; level <= 2; level++ {
		n := code.BlockSize(level)
		wires := make([]int, n)
		for i := range wires {
			wires[i] = i
		}
		st := NewState(n)
		vals := []uint64{r.Uint64()}
		got := make([]uint64, 1)
		st.EncodeBlock(wires, vals)
		if st.DecodeBlock(wires, got); got[0] != vals[0] {
			t.Fatalf("level %d: decoded %x, want %x", level, got[0], vals[0])
		}
		if level == 0 {
			continue
		}
		// A single corrupted wire (any lane pattern) must not change any
		// lane's decode at level >= 1.
		for w := 0; w < n; w++ {
			st.W[w] ^= r.Uint64()
			if st.DecodeBlock(wires, got); got[0] != vals[0] {
				t.Fatalf("level %d: single error on wire %d broke decode", level, w)
			}
			st.EncodeBlock(wires, vals)
		}
	}
}

func TestDecodeRejectsBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeBlock of a 4-wire block did not panic")
		}
	}()
	NewState(4).DecodeBlock([]int{0, 1, 2, 3}, make([]uint64, 1))
}

// TestDecodeMatchesCode cross-checks random corrupted codewords against
// the scalar recursive decoder, lane by lane in every word of a block.
func TestDecodeMatchesCode(t *testing.T) {
	r := rng.New(17)
	const level = 2
	n := code.BlockSize(level)
	wires := make([]int, n)
	for i := range wires {
		wires[i] = i
	}
	for _, words := range []int{1, 4} {
		for trial := 0; trial < 20; trial++ {
			st := NewWideState(n, words)
			for i := range st.W {
				st.W[i] = r.Uint64()
			}
			got := make([]uint64, words)
			st.DecodeBlock(wires, got)
			for k := 0; k < words; k++ {
				for lane := 0; lane < 64; lane++ {
					sc := bitvec.New(n)
					for w := 0; w < n; w++ {
						sc.Set(w, st.Wire(w)[k]>>uint(lane)&1 == 1)
					}
					if want := code.Decode(sc, wires, level); want != (got[k]>>uint(lane)&1 == 1) {
						t.Fatalf("K=%d trial %d word %d lane %d: lanes decode %v, scalar %v",
							words, trial, k, lane, !want, want)
					}
				}
			}
		}
	}
}

// TestCompileClampsProbabilities checks the 64-lane Compile is the K = 1
// wide program and clamps out-of-range fault probabilities.
func TestCompileClampsProbabilities(t *testing.T) {
	prog := Compile(circuit.New(1).NOT(0), noise.IID{Gate: 7})
	if prog.Words() != 1 || prog.Lanes() != 64 {
		t.Fatalf("Compile built a %d-word program, want 1", prog.Words())
	}
	if len(prog.samplers) != 1 || prog.samplers[0].p != 1 {
		t.Fatalf("fault probability not clamped to 1: %+v", prog.samplers)
	}
	if st := NewState(1); st.Words != 1 || st.Lanes() != 64 {
		t.Fatalf("NewState built a %d-word state, want 1", st.Words)
	}
}

func TestBroadcast(t *testing.T) {
	if Broadcast(true) != ^uint64(0) || Broadcast(false) != 0 {
		t.Fatal("Broadcast is not all-ones / all-zeros")
	}
}

// TestBernoulliMaskInfiniteLogq drives the sampler at its numeric edge:
// p = 1 precompiles to logq = log1p(-1) = -Inf, which must yield a zero
// gap (every lane faults) rather than a NaN or overflowed skip.
func TestBernoulliMaskInfiniteLogq(t *testing.T) {
	r := rng.New(9)
	logq := math.Log1p(-1.0)
	if !math.IsInf(logq, -1) {
		t.Fatalf("log1p(-1) = %v, want -Inf", logq)
	}
	for i := 0; i < 100; i++ {
		if g := geomGap(r, logq); g != 0 {
			t.Fatalf("p=1, logq=-Inf: gap = %d, want 0", g)
		}
	}
	prog := Compile(circuit.New(3).MAJ(0, 1, 2).NOT(0), noise.Uniform(1))
	if n := prog.Run(NewState(3), r); n != 2*64 {
		t.Fatalf("p=1: %d fault events over 2 ops × 64 lanes, want 128", n)
	}
}

// TestBernoulliMaskTinyP checks the opposite extreme: at p = 1e-12 the
// geometric gap is ~1e12 lanes, so virtually every block must pass
// fault-free rather than losing the gap to float truncation or overflow
// and faulting spuriously.
func TestBernoulliMaskTinyP(t *testing.T) {
	const p = 1e-12
	r := rng.New(10)
	for i := 0; i < 1000; i++ {
		if g := geomGap(r, math.Log1p(-p)); g < 0 || g > maxGeomGap {
			t.Fatalf("gap %d outside [0, %d]", g, maxGeomGap)
		}
	}
	prog := Compile(circuit.New(1).NOT(0), noise.Uniform(p))
	total := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		total += prog.Run(NewState(1), r)
	}
	// Expected hits: draws·64·p ≈ 1.3e-5. More than a couple means the
	// skip arithmetic is broken, not bad luck.
	if total > 2 {
		t.Fatalf("p=1e-12: %d faults in %d blocks (expected ~0)", total, draws)
	}
}

// TestBernoulliMaskChiSquareHalf is a goodness-of-fit check at p = 0.5,
// where the geometric-skip construction degenerates to gap ~ Geometric(1/2)
// and any bias in the inversion or the lane walk would be largest. The
// observed per-lane fault counts over many blocks are tested against
// Binomial(draws, 7/16) with a chi-square statistic at 64 degrees of
// freedom, at K = 1 and over the 256 lanes of a K = 4 block.
func TestBernoulliMaskChiSquareHalf(t *testing.T) {
	const p, q = 0.5, 7.0 / 16
	c := circuit.New(3).Init3(0, 1, 2)
	for _, words := range []int{1, 4} {
		prog := CompileWide(c, noise.Uniform(p), words)
		st := NewWideState(3, words)
		r := rng.New(11)
		const draws = 100000 / 4
		perLane := make([]int, 64*words)
		for i := 0; i < draws; i++ {
			for j := range st.W {
				st.W[j] = ^uint64(0)
			}
			prog.Run(st, r)
			for l := range perLane {
				k, b := l>>6, uint(l&63)
				perLane[l] += int((st.Wire(0)[k] | st.Wire(1)[k] | st.Wire(2)[k]) >> b & 1)
			}
		}
		chi2 := 0.0
		mean := draws * q
		variance := draws * q * (1 - q)
		for _, c := range perLane {
			d := float64(c) - mean
			chi2 += d * d / variance
		}
		// χ²(df) has mean df and sd sqrt(2·df); df + 6·sd is far beyond
		// the 99.99% quantile (≈117 at df 64). The seed is fixed, so a
		// failure is a real distributional defect.
		df := float64(len(perLane))
		if limit := df + 6*math.Sqrt(2*df); chi2 > limit {
			t.Fatalf("K=%d: per-lane χ² = %v over %v df (threshold %v)", words, chi2, df, limit)
		}
	}
}
