package lanes

// The compiler and interpreter of the engine. CompileWide lowers a
// circuit for a block of K words per wire (64·K trial lanes):
//
//   - Each dispatch advances all K·64 trials, so the interpreter walk
//     amortizes K-fold; K = 1 is the 64-lane engine.
//   - Adjacent word ops are fused: the Figure 1 decomposition
//     CNOT·CNOT·Toffoli (a MAJ), its inverse, and the Cuccaro adder's
//     UMA triple each collapse to a single kernel. A fused op keeps one
//     fault point per source op, so the noise process is untouched — only
//     the fault-free dispatch cost drops.
//   - Wire indices are constant-folded: every target is pre-multiplied by
//     K at compile time, so the hot loop does no index arithmetic beyond
//     an add.
//   - Fault parameters are grouped: ops sharing a fault probability share
//     one geometric sampler whose "lanes until the next fault" state
//     advances across ops in program order. Deciding that an op is
//     fault-free this block costs one comparison and one subtraction —
//     no logarithm, no RNG draw — while the sampled process remains
//     distributionally identical to independent per-op Bernoulli masks,
//     because a single geometric skip chain over the concatenated
//     (fault point, lane) sequence generates exactly the same iid
//     Bernoulli process the per-op masks do.
//
// Kernels loop over the K words of each wire at runtime rather than via
// per-K specializations: gc does not auto-vectorize either way, and the
// measured wins come from amortized dispatch, fusion, and the grouped
// sampler, not from unrolling.

import (
	"fmt"
	"math"

	"revft/internal/circuit"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
)

// WideState is a K-word lane block: wire w occupies the Words
// consecutive uint64s starting at w·Words, and bit j of word k of a wire
// is the wire's value in trial lane 64k+j.
type WideState struct {
	Words int
	W     []uint64
}

// NewWideState returns an all-zero state of width wires with words words
// (64·words trial lanes) per wire.
func NewWideState(width, words int) WideState {
	if words < 1 {
		panic(fmt.Sprintf("lanes: wide state needs at least 1 word per wire, got %d", words))
	}
	return WideState{Words: words, W: make([]uint64, width*words)}
}

// Width returns the number of wires.
func (s WideState) Width() int { return len(s.W) / s.Words }

// Lanes returns the number of trial lanes per wire.
func (s WideState) Lanes() int { return 64 * s.Words }

// Reset zeroes every lane of every wire.
func (s WideState) Reset() {
	for i := range s.W {
		s.W[i] = 0
	}
}

// Wire returns the words of wire w, aliasing the state.
func (s WideState) Wire(w int) []uint64 { return s.W[w*s.Words : (w+1)*s.Words] }

// EncodeBlock writes the logical lane values vals (lane 64k+j in bit j of
// vals[k]) onto every wire of a codeword block: in a noiseless repetition
// codeword every wire carries the logical bit.
func (s WideState) EncodeBlock(wires []int, vals []uint64) {
	for _, w := range wires {
		copy(s.Wire(w), vals[:s.Words])
	}
}

// DecodeBlock recursively majority-decodes a level-L block of 3^L wires
// lane-wise into out: bit j of out[k] is the decoded logical value in
// lane 64k+j. out must have Words words. It panics unless the block size
// is a power of three.
func (s WideState) DecodeBlock(wires []int, out []uint64) {
	if !isPowerOfThree(len(wires)) {
		panic(fmt.Sprintf("lanes: DecodeBlock got %d wires, not a power of three", len(wires)))
	}
	for k := 0; k < s.Words; k++ {
		out[k] = s.decodeWord(wires, k)
	}
}

func (s WideState) decodeWord(wires []int, k int) uint64 {
	if len(wires) == 1 {
		return s.W[wires[0]*s.Words+k]
	}
	third := len(wires) / 3
	return Majority(
		s.decodeWord(wires[:third], k),
		s.decodeWord(wires[third:2*third], k),
		s.decodeWord(wires[2*third:], k),
	)
}

// EvalWide applies gate k's word kernel to the packed local words w, where
// w[i] holds the lanes of local bit i — the lane-wise analogue of
// gate.Kind.Eval, used to compute ideal reference outputs for whole
// blocks. len(w) must equal the gate's arity and every w[i] must have the
// same length.
func EvalWide(k gate.Kind, w [][]uint64) {
	if len(w) != k.Arity() {
		panic(fmt.Sprintf("lanes: EvalWide of %s wants %d wires, got %d", k, k.Arity(), len(w)))
	}
	a := w[0]
	var b, c []uint64
	if len(w) > 1 {
		b = w[1][:len(a)]
	}
	if len(w) > 2 {
		c = w[2][:len(a)]
	}
	for j := range a {
		switch k {
		case gate.NOT:
			a[j] = ^a[j]
		case gate.CNOT:
			b[j] ^= a[j]
		case gate.SWAP:
			a[j], b[j] = b[j], a[j]
		case gate.Toffoli:
			c[j] ^= a[j] & b[j]
		case gate.Fredkin:
			d := (b[j] ^ c[j]) & a[j]
			b[j] ^= d
			c[j] ^= d
		case gate.MAJ:
			b[j] ^= a[j]
			c[j] ^= a[j]
			a[j] ^= b[j] & c[j]
		case gate.MAJInv:
			a[j] ^= b[j] & c[j]
			b[j] ^= a[j]
			c[j] ^= a[j]
		case gate.SWAP3:
			a[j], b[j], c[j] = b[j], c[j], a[j]
		case gate.SWAP3Inv:
			a[j], b[j], c[j] = c[j], a[j], b[j]
		case gate.Init3:
			a[j], b[j], c[j] = 0, 0, 0
		default:
			panic(fmt.Sprintf("lanes: no word kernel for %s", k))
		}
	}
}

// wideCode selects a wide kernel. The fused codes execute three source
// ops in one dispatch; their fault-free kernels coincide with the plain
// MAJ/MAJInv word kernels because the fused sequences are exactly the
// Figure 1 decompositions (and the UMA triple of the Cuccaro adder).
type wideCode uint8

const (
	wNOT wideCode = iota
	wCNOT
	wSWAP
	wToffoli
	wFredkin
	wMAJ
	wMAJInv
	wSWAP3
	wSWAP3Inv
	wInit3
	// wFusedMAJ is CNOT(a,b) · CNOT(a,c) · Toffoli(b,c,a): the Figure 1
	// MAJ decomposition as one kernel with three fault points.
	wFusedMAJ
	// wFusedMAJInv is Toffoli(b,c,a) · CNOT(a,b) · CNOT(a,c), the inverse
	// decomposition.
	wFusedMAJInv
	// wFusedUMA is Toffoli(b,c,a) · CNOT(a,b) · CNOT(b,c): the UnMajority-
	// and-Add triple of the Cuccaro ripple adder's reverse sweep.
	wFusedUMA
)

// widePoint is one fault-injection point of a wide op: after its sub-step
// executes, each lane independently faults with its sampler's probability,
// and a faulting lane's bits on the wmask-selected targets are replaced
// with uniform random bits — the paper's randomizing channel.
type widePoint struct {
	sampler int32 // index into WideProgram.samplers; -1 when p = 0
	wmask   uint8 // bits 0/1/2: fault randomizes target a/b/c
}

// wideOp is one compiled wide instruction: a kernel over up to three
// wires whose word indices were pre-multiplied by Words at compile time,
// plus ns fault points (one per source op the instruction covers).
type wideOp struct {
	code    wideCode
	a, b, c int32 // first-word indices (wire · Words); b, c unused below arity
	ns      uint8 // sub-steps = fault points (1 plain, 3 fused)
	fp      [3]widePoint
}

// wideSampler is one shared geometric fault sampler: all fault points
// compiled with the same probability draw their skip gaps from the same
// Geometric(p), so the sampler's run state can advance across ops.
type wideSampler struct {
	p       float64
	invRate float64 // λ⁻¹ = -1/log1p(-p), 0 at p = 1; see geomGap
}

// maxSamplers bounds a program's samplers: there is one per distinct
// fault probability, and the noise model assigns one per gate kind, so
// Run keeps its countdowns in a fixed array instead of allocating.
const maxSamplers = 16

// WideProgram is a circuit compiled for the engine under a fixed noise
// model and block width. It is immutable after CompileWide and safe for
// concurrent use by multiple goroutines, each with its own WideState and
// RNG.
type WideProgram struct {
	width, words int
	ops          []wideOp
	samplers     []wideSampler
	srcLen       int // ops in the source circuit
	fused        int // fused triples recognized
}

// Width returns the number of wires the program expects.
func (p *WideProgram) Width() int { return p.width }

// Words returns the block width in 64-lane words.
func (p *WideProgram) Words() int { return p.words }

// Lanes returns the number of trial lanes per batch.
func (p *WideProgram) Lanes() int { return 64 * p.words }

// Len returns the number of compiled wide ops (≤ the source length).
func (p *WideProgram) Len() int { return len(p.ops) }

// SourceLen returns the number of ops in the source circuit.
func (p *WideProgram) SourceLen() int { return p.srcLen }

// Fused returns how many three-op sequences the compiler fused.
func (p *WideProgram) Fused() int { return p.fused }

// Samplers returns how many distinct fault probabilities the program's
// fault points were grouped into.
func (p *WideProgram) Samplers() int { return len(p.samplers) }

// srcOp is CompileWide's working copy of one source op.
type srcOp struct {
	kind gate.Kind
	t    [3]int
	n    int
}

// CompileWide lowers c for the engine under noise model m with words
// 64-lane words per wire. Fault probabilities outside [0, 1] clamp,
// matching rng.Bool.
func CompileWide(c *circuit.Circuit, m noise.Model, words int) *WideProgram {
	if words < 1 {
		panic(fmt.Sprintf("lanes: CompileWide needs at least 1 word per wire, got %d", words))
	}
	src := make([]srcOp, 0, c.Len())
	c.Each(func(_ int, k gate.Kind, targets []int) {
		s := srcOp{kind: k, n: len(targets)}
		copy(s.t[:], targets)
		src = append(src, s)
	})

	p := &WideProgram{width: c.Width(), words: words, srcLen: len(src), ops: make([]wideOp, 0, len(src))}
	samplerIdx := make(map[float64]int32)
	sampler := func(k gate.Kind) int32 {
		pr := m.FaultProb(k)
		if pr < 0 {
			pr = 0
		}
		if pr > 1 {
			pr = 1
		}
		if pr == 0 {
			return -1
		}
		if i, ok := samplerIdx[pr]; ok {
			return i
		}
		i := int32(len(p.samplers))
		p.samplers = append(p.samplers, wideSampler{p: pr, invRate: -1 / math.Log1p(-pr)})
		samplerIdx[pr] = i
		return i
	}

	for i := 0; i < len(src); {
		if code, a, b, c3, kinds, masks, ok := fuseTriple(src, i); ok {
			o := wideOp{code: code, a: int32(a * words), b: int32(b * words), c: int32(c3 * words), ns: 3}
			for k := 0; k < 3; k++ {
				o.fp[k] = widePoint{sampler: sampler(kinds[k]), wmask: masks[k]}
			}
			p.ops = append(p.ops, o)
			p.fused++
			i += 3
			continue
		}
		s := src[i]
		o := wideOp{code: plainCode(s.kind), ns: 1}
		o.a = int32(s.t[0] * words)
		if s.n > 1 {
			o.b = int32(s.t[1] * words)
		}
		if s.n > 2 {
			o.c = int32(s.t[2] * words)
		}
		o.fp[0] = widePoint{sampler: sampler(s.kind), wmask: uint8(1<<uint(s.n)) - 1}
		p.ops = append(p.ops, o)
		i++
	}
	return p
}

// plainCode maps a gate kind to its unfused wide opcode.
func plainCode(k gate.Kind) wideCode {
	switch k {
	case gate.NOT:
		return wNOT
	case gate.CNOT:
		return wCNOT
	case gate.SWAP:
		return wSWAP
	case gate.Toffoli:
		return wToffoli
	case gate.Fredkin:
		return wFredkin
	case gate.MAJ:
		return wMAJ
	case gate.MAJInv:
		return wMAJInv
	case gate.SWAP3:
		return wSWAP3
	case gate.SWAP3Inv:
		return wSWAP3Inv
	case gate.Init3:
		return wInit3
	}
	panic(fmt.Sprintf("lanes: no word kernel for %s", k))
}

// fuseTriple recognizes the three fusible patterns at src[i..i+2]. The
// returned wire roles (a, b, c) are chosen so the fused kernel is the
// corresponding MAJ/MAJ⁻¹/UMA word kernel on (a, b, c); kinds and masks
// give each fault point its source gate kind (for the sampler) and its
// sub-op's target set. Toffoli controls are symmetric, so both control
// orders match.
func fuseTriple(src []srcOp, i int) (code wideCode, a, b, c int, kinds [3]gate.Kind, masks [3]uint8, ok bool) {
	if i+3 > len(src) {
		return
	}
	o0, o1, o2 := src[i], src[i+1], src[i+2]
	// MAJ: CNOT(a,b) · CNOT(a,c) · Toffoli(b,c,a).
	if o0.kind == gate.CNOT && o1.kind == gate.CNOT && o2.kind == gate.Toffoli &&
		o0.t[0] == o1.t[0] {
		a, b, c = o0.t[0], o0.t[1], o1.t[1]
		if b != c && o2.t[2] == a &&
			(o2.t[0] == b && o2.t[1] == c || o2.t[0] == c && o2.t[1] == b) {
			return wFusedMAJ, a, b, c,
				[3]gate.Kind{gate.CNOT, gate.CNOT, gate.Toffoli},
				[3]uint8{0b011, 0b101, 0b111}, true
		}
	}
	if o0.kind == gate.Toffoli && o1.kind == gate.CNOT && o2.kind == gate.CNOT && o1.t[0] == o0.t[2] {
		a, b, c = o0.t[2], o1.t[1], o2.t[1]
		if b != c && (o0.t[0] == b && o0.t[1] == c || o0.t[0] == c && o0.t[1] == b) {
			// MAJ⁻¹: Toffoli(b,c,a) · CNOT(a,b) · CNOT(a,c).
			if o2.t[0] == a {
				return wFusedMAJInv, a, b, c,
					[3]gate.Kind{gate.Toffoli, gate.CNOT, gate.CNOT},
					[3]uint8{0b111, 0b011, 0b101}, true
			}
			// UMA: Toffoli(b,c,a) · CNOT(a,b) · CNOT(b,c).
			if o2.t[0] == b {
				return wFusedUMA, a, b, c,
					[3]gate.Kind{gate.Toffoli, gate.CNOT, gate.CNOT},
					[3]uint8{0b111, 0b011, 0b110}, true
			}
		}
	}
	return 0, 0, 0, 0, kinds, masks, false
}

// wideStep applies o's full kernel to st — all sub-steps of a fused op,
// in source order — advancing all K·64 lanes.
func (p *WideProgram) wideStep(st []uint64, o *wideOp) {
	K := p.words
	a, b, c := int(o.a), int(o.b), int(o.c)
	switch o.code {
	case wNOT:
		for j := 0; j < K; j++ {
			st[a+j] = ^st[a+j]
		}
	case wCNOT:
		for j := 0; j < K; j++ {
			st[b+j] ^= st[a+j]
		}
	case wSWAP:
		for j := 0; j < K; j++ {
			st[a+j], st[b+j] = st[b+j], st[a+j]
		}
	case wToffoli:
		for j := 0; j < K; j++ {
			st[c+j] ^= st[a+j] & st[b+j]
		}
	case wFredkin:
		for j := 0; j < K; j++ {
			d := (st[b+j] ^ st[c+j]) & st[a+j]
			st[b+j] ^= d
			st[c+j] ^= d
		}
	case wMAJ, wFusedMAJ:
		for j := 0; j < K; j++ {
			st[b+j] ^= st[a+j]
			st[c+j] ^= st[a+j]
			st[a+j] ^= st[b+j] & st[c+j]
		}
	case wMAJInv, wFusedMAJInv:
		for j := 0; j < K; j++ {
			st[a+j] ^= st[b+j] & st[c+j]
			st[b+j] ^= st[a+j]
			st[c+j] ^= st[a+j]
		}
	case wFusedUMA:
		for j := 0; j < K; j++ {
			st[a+j] ^= st[b+j] & st[c+j]
			st[b+j] ^= st[a+j]
			st[c+j] ^= st[b+j]
		}
	case wSWAP3:
		for j := 0; j < K; j++ {
			st[a+j], st[b+j], st[c+j] = st[b+j], st[c+j], st[a+j]
		}
	case wSWAP3Inv:
		for j := 0; j < K; j++ {
			st[a+j], st[b+j], st[c+j] = st[c+j], st[a+j], st[b+j]
		}
	case wInit3:
		for j := 0; j < K; j++ {
			st[a+j], st[b+j], st[c+j] = 0, 0, 0
		}
	}
}

// wideSubStep applies sub-step k of o: for fused ops, the k-th source op's
// kernel alone; plain ops have a single sub-step, their whole kernel.
func (p *WideProgram) wideSubStep(st []uint64, o *wideOp, k int) {
	K := p.words
	a, b, c := int(o.a), int(o.b), int(o.c)
	switch o.code {
	case wFusedMAJ:
		switch k {
		case 0:
			for j := 0; j < K; j++ {
				st[b+j] ^= st[a+j]
			}
		case 1:
			for j := 0; j < K; j++ {
				st[c+j] ^= st[a+j]
			}
		default:
			for j := 0; j < K; j++ {
				st[a+j] ^= st[b+j] & st[c+j]
			}
		}
	case wFusedMAJInv:
		switch k {
		case 0:
			for j := 0; j < K; j++ {
				st[a+j] ^= st[b+j] & st[c+j]
			}
		case 1:
			for j := 0; j < K; j++ {
				st[b+j] ^= st[a+j]
			}
		default:
			for j := 0; j < K; j++ {
				st[c+j] ^= st[a+j]
			}
		}
	case wFusedUMA:
		switch k {
		case 0:
			for j := 0; j < K; j++ {
				st[a+j] ^= st[b+j] & st[c+j]
			}
		case 1:
			for j := 0; j < K; j++ {
				st[b+j] ^= st[a+j]
			}
		default:
			for j := 0; j < K; j++ {
				st[c+j] ^= st[b+j]
			}
		}
	default:
		p.wideStep(st, o)
	}
}

// RunNoiseless executes the program on st with every fault suppressed.
func (p *WideProgram) RunNoiseless(st WideState) {
	p.check(st)
	for i := range p.ops {
		p.wideStep(st.W, &p.ops[i])
	}
}

// maxGeomGap caps a geometric skip so the per-sampler countdown can never
// overflow an int64 under repeated block-length subtractions.
const maxGeomGap = int64(1) << 62

// geomGap draws Geometric(p) — the number of clear lanes before the next
// faulting lane — as floor(E·λ⁻¹) with E ~ Exp(1) and λ = -log1p(-p):
// P(gap ≥ k) = P(E ≥ kλ) = (1-p)^k. E comes from the ziggurat, so the
// common draw costs one Uint64, one multiply and one compare, and no
// logarithm. invRate = 0 (p = 1) yields gap 0, the every-lane-faults path.
func geomGap(r *rng.RNG, invRate float64) int64 {
	f := r.ExpFloat64() * invRate
	if f >= float64(maxGeomGap) {
		return maxGeomGap
	}
	return int64(f)
}

// Run executes the program on st under the compiled noise model, drawing
// randomness from r, and returns the total number of (source op, lane)
// fault events. The count covers every simulated lane slot of the block,
// including slots a harness later discards as excess, so a per-trial
// fault rate must be normalized by slots, not by counted trials.
//
// Per run, each sampler holds a countdown: how many more (fault point,
// lane) slots pass before its next fault. An op whose fault points all
// have countdowns ≥ the block length takes the fast path — the whole
// (possibly fused) kernel in one dispatch, countdowns decremented by one
// block each. Otherwise the op replays sub-step by sub-step, walking each
// fault point's faulting lanes with geometric skips.
func (p *WideProgram) Run(st WideState, r *rng.RNG) int {
	p.check(st)
	w := st.W
	L := int64(p.words) * 64

	// One fresh geometric draw per sampler per run: run state never leaks
	// across batches, so batches stay independent and reproducible.
	var nextBuf [maxSamplers]int64
	next := nextBuf[:len(p.samplers)]
	for i := range next {
		next[i] = geomGap(r, p.samplers[i].invRate)
	}

	faults := 0
	var saved [3]int64
	for i := range p.ops {
		o := &p.ops[i]
		nf := int(o.ns)
		fast := true
		for k := 0; k < nf; k++ {
			si := o.fp[k].sampler
			if si < 0 {
				continue
			}
			saved[k] = next[si]
			if next[si] < L {
				// A fault fires inside this op's block: roll the
				// countdowns back (last restore wins for shared
				// samplers) and replay the op sub-step by sub-step.
				fast = false
				for j := k; j >= 0; j-- {
					if sj := o.fp[j].sampler; sj >= 0 {
						next[sj] = saved[j]
					}
				}
				break
			}
			next[si] -= L
		}
		if fast {
			p.wideStep(w, o)
			continue
		}
		for k := 0; k < nf; k++ {
			p.wideSubStep(w, o, k)
			f := &o.fp[k]
			if f.sampler < 0 {
				continue
			}
			n := next[f.sampler]
			for n < L {
				p.faultLane(w, o, f.wmask, n, r)
				faults++
				n += 1 + geomGap(r, p.samplers[f.sampler].invRate)
			}
			next[f.sampler] = n - L
		}
	}
	return faults
}

// faultLane replaces lane n of each wmask-selected target with a fresh
// uniform bit — the per-lane randomizing channel of the slow path. One
// Uint64 supplies all of them: bit 63 goes to target a, bit 62 to b and
// bit 61 to c.
func (p *WideProgram) faultLane(st []uint64, o *wideOp, wmask uint8, n int64, r *rng.RNG) {
	word, bit := int(n>>6), uint(n&63)
	u := r.Uint64()
	if wmask&1 != 0 {
		i := int(o.a) + word
		st[i] = st[i]&^(1<<bit) | u>>63<<bit
	}
	if wmask&2 != 0 {
		i := int(o.b) + word
		st[i] = st[i]&^(1<<bit) | u>>62&1<<bit
	}
	if wmask&4 != 0 {
		i := int(o.c) + word
		st[i] = st[i]&^(1<<bit) | u>>61&1<<bit
	}
}

func (p *WideProgram) check(st WideState) {
	if st.Words != p.words {
		panic(fmt.Sprintf("lanes: state has %d words per wire, program wants %d", st.Words, p.words))
	}
	if st.Width() < p.width {
		panic(fmt.Sprintf("lanes: state width %d < program width %d", st.Width(), p.width))
	}
}
