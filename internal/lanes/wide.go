package lanes

// The compiler and interpreter of the engine. CompileWideFor lowers a
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
//   - Fault points are numbered in program order and grouped: points
//     sharing a fault probability share one geometric sampler, which skips
//     along the concatenation of their (point, lane) slots. A single
//     geometric skip chain over that sequence generates exactly the iid
//     Bernoulli process independent per-op masks would, with no logarithm
//     and one RNG draw per fault rather than per lane.
//   - Ops are run only if an output depends on them: given the wires its
//     caller reads, the compiler drops the ops none of whose targets
//     reaches one, but keeps their fault points, so the randomness drawn
//     is the full program's.
//
// Run draws each batch's fault schedule ahead of the walk, so an op
// before the next fault costs one comparison and its kernel. Kernels loop
// over the K words of each wire at runtime rather than via per-K
// specializations: gc does not auto-vectorize either way, and the
// measured wins come from amortized dispatch, fusion, and the grouped
// sampler, not from unrolling.

import (
	"fmt"
	"math"
	"math/bits"

	"revft/internal/circuit"
	"revft/internal/code"
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
	if code.Level(len(wires)) < 0 {
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

// The sub-steps of the fused kernels, by wire role: a CNOT from one role
// into another, or the Toffoli (b, c) → a.
const (
	subAB      = iota // b ^= a
	subAC             // c ^= a
	subBC             // c ^= b
	subToffoli        // a ^= b & c
)

// fusedSteps lists each fused code's sub-steps in source order, indexed
// by code - wFusedMAJ.
var fusedSteps = [3][3]uint8{
	{subAB, subAC, subToffoli}, // wFusedMAJ
	{subToffoli, subAB, subAC}, // wFusedMAJInv
	{subToffoli, subAB, subBC}, // wFusedUMA
}

// wideOp is one compiled wide instruction: a kernel over up to three
// wires whose word indices were pre-multiplied by Words at compile time,
// plus ns fault points (one per source op the instruction covers),
// numbered pt, pt+1, … in the program's fault-point order. After sub-step
// k each lane independently faults with its point's probability, and a
// faulting lane's bits on the wmask[k]-selected targets (bits 0/1/2:
// a/b/c) are replaced with uniform random bits — the paper's randomizing
// channel.
type wideOp struct {
	code    wideCode
	ns      uint8 // sub-steps = fault points (1 plain, 3 fused)
	wmask   [3]uint8
	a, b, c int32 // first-word indices (wire · Words); b, c unused below arity
	pt      int32
}

// wideSampler is one shared geometric fault sampler: all fault points
// compiled with the same probability draw their skip gaps from the same
// Geometric(p), over the concatenation of those points' lanes in program
// order.
type wideSampler struct {
	p       float64
	invRate float64 // λ⁻¹ = -1/log1p(-p), 0 at p = 1; see geomGap
	points  []int32 // the fault points it serves, ascending
}

// maxSamplers bounds a program's samplers: there is one per distinct
// fault probability, and the noise model assigns one per gate kind, so
// Run keeps its pending faults in fixed arrays instead of allocating.
const maxSamplers = 16

// WideProgram is a circuit compiled for the engine under a fixed noise
// model and block width. It is immutable after CompileWideFor and safe
// for concurrent use by multiple goroutines, each with its own WideState
// and RNG.
type WideProgram struct {
	width, words int
	shift        uint     // log2 of the lanes per batch
	ops          []wideOp // the walk: the compiled ops an output depends on
	samplers     []wideSampler
	points       int32 // fault points of all compiled ops, walked or not
	compiled     int   // compiled ops, walked or not
	srcLen       int   // ops in the source circuit
	fused        int   // fused triples recognized
}

// Width returns the number of wires the program expects.
func (p *WideProgram) Width() int { return p.width }

// Words returns the block width in 64-lane words.
func (p *WideProgram) Words() int { return p.words }

// Lanes returns the number of trial lanes per batch.
func (p *WideProgram) Lanes() int { return 64 * p.words }

// Len returns the number of compiled wide ops (≤ the source length),
// including any Dead ones.
func (p *WideProgram) Len() int { return p.compiled }

// Dead returns how many compiled ops Run skips because none of their
// targets reaches the wires the program was compiled for.
func (p *WideProgram) Dead() int { return p.compiled - len(p.ops) }

// SourceLen returns the number of ops in the source circuit.
func (p *WideProgram) SourceLen() int { return p.srcLen }

// Fused returns how many three-op sequences the compiler fused.
func (p *WideProgram) Fused() int { return p.fused }

// Samplers returns how many distinct fault probabilities the program's
// fault points were grouped into.
func (p *WideProgram) Samplers() int { return len(p.samplers) }

// maxWords bounds a program's block width so that a lane index fits an
// event's uint16.
const maxWords = 1024

// srcOp is CompileWideFor's working copy of one source op.
type srcOp struct {
	kind gate.Kind
	t    [3]int
	n    int
}

// CompileWide is CompileWideFor(c, m, words, nil): the program for a
// caller that reads every wire after Run.
func CompileWide(c *circuit.Circuit, m noise.Model, words int) *WideProgram {
	return CompileWideFor(c, m, words, nil)
}

// CompileWideFor lowers c for the engine under noise model m with words
// 64-lane words per wire, for a caller that reads only the wires outs
// after Run; nil outs means every wire. Ops none of whose targets reaches
// outs are dropped from the walk and faults randomize only targets that
// do, while every fault point keeps its number: Run draws the same
// randomness, returns the same fault count and leaves the outs wires as
// the program compiled for every wire would. The other wires hold
// unspecified values after Run. words must be a power of two up to
// maxWords; fault probabilities outside [0, 1] clamp, matching rng.Bool.
func CompileWideFor(c *circuit.Circuit, m noise.Model, words int, outs []int) *WideProgram {
	if words < 1 || words > maxWords || words&(words-1) != 0 {
		panic(fmt.Sprintf("lanes: CompileWide needs a power of two up to %d words per wire, got %d", maxWords, words))
	}
	src := make([]srcOp, 0, c.Len())
	c.Each(func(_ int, k gate.Kind, targets []int) {
		s := srcOp{kind: k, n: len(targets)}
		copy(s.t[:], targets)
		src = append(src, s)
	})

	p := &WideProgram{width: c.Width(), words: words, shift: uint(bits.TrailingZeros(uint(64 * words))), srcLen: len(src)}
	// addPoint numbers the next fault point and hands it to the sampler
	// of k's fault probability, if that is not 0.
	addPoint := func(k gate.Kind) {
		if i := p.sampler(m.FaultProb(k)); i >= 0 {
			p.samplers[i].points = append(p.samplers[i].points, p.points)
		}
		p.points++
	}

	ops := make([]wideOp, 0, len(src))
	for i := 0; i < len(src); {
		o := wideOp{pt: p.points}
		if code, a, b, c3, kinds, masks, ok := fuseTriple(src, i); ok {
			o.code, o.ns, o.wmask = code, 3, masks
			o.a, o.b, o.c = int32(a), int32(b), int32(c3)
			for _, k := range kinds {
				addPoint(k)
			}
			p.fused++
			i += 3
		} else {
			s := src[i]
			o.code, o.ns = plainCode(s.kind), 1
			o.wmask[0] = uint8(1<<uint(s.n)) - 1
			o.a, o.b, o.c = int32(s.t[0]), int32(s.t[1]), int32(s.t[2])
			addPoint(s.kind)
			i++
		}
		ops = append(ops, o)
	}
	p.compiled = len(ops)
	if outs != nil {
		ops = prune(ops, p.width, outs)
	}
	for i := range ops {
		o := &ops[i]
		o.a, o.b, o.c = o.a*int32(words), o.b*int32(words), o.c*int32(words)
	}
	p.ops = ops
	return p
}

// sampler returns the index of the sampler of fault probability pr,
// clamped to [0, 1], adding one if there is none yet, or -1 when pr is
// 0. Samplers are numbered in order of first use.
func (p *WideProgram) sampler(pr float64) int {
	if pr < 0 {
		pr = 0
	}
	if pr > 1 {
		pr = 1
	}
	if pr == 0 {
		return -1
	}
	for i := range p.samplers {
		if p.samplers[i].p == pr {
			return i
		}
	}
	p.samplers = append(p.samplers, wideSampler{p: pr, invRate: -1 / math.Log1p(-pr)})
	return len(p.samplers) - 1
}

// prune is CompileWideFor's liveness pass over ops, whose a, b, c are
// still wire indices. Walking backward from outs, a sub-step is live when
// one of its targets is live after it; a fault after it then randomizes
// only those targets, and every target of it is live before it. An op
// with no live sub-step is dropped.
func prune(ops []wideOp, width int, outs []int) []wideOp {
	live := make([]bool, width)
	for _, w := range outs {
		live[w] = true
	}
	keep := make([]bool, len(ops))
	for i := len(ops) - 1; i >= 0; i-- {
		o := &ops[i]
		wires := [3]int32{o.a, o.b, o.c}
		for k := int(o.ns) - 1; k >= 0; k-- {
			targets := o.wmask[k]
			o.wmask[k] = 0
			for r, w := range wires {
				if targets>>r&1 != 0 && live[w] {
					o.wmask[k] |= 1 << r
				}
			}
			if o.wmask[k] == 0 {
				continue
			}
			keep[i] = true
			for r, w := range wires {
				if targets>>r&1 != 0 {
					live[w] = true
				}
			}
		}
	}
	walk := ops[:0]
	for i, o := range ops {
		if keep[i] {
			walk = append(walk, o)
		}
	}
	return walk
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

// wires returns the K words of o's wires a, b and c; b and c alias wire
// 0 below arity 2 and 3. Slicing them once to one length lets the
// kernels' loops run without bounds checks.
func (o *wideOp) wires(st []uint64, K int) (x, y, z []uint64) {
	a := int(o.a)
	x = st[a : a+K : a+K]
	return x, st[o.b:][:len(x)], st[o.c:][:len(x)]
}

// step applies o's whole kernel — every sub-step of a fused op, in source
// order — to all K·64 lanes.
func (o *wideOp) step(st []uint64, K int) {
	x, y, z := o.wires(st, K)
	switch o.code {
	case wNOT:
		for j := range x {
			x[j] = ^x[j]
		}
	case wCNOT:
		for j := range x {
			y[j] ^= x[j]
		}
	case wSWAP:
		for j := range x {
			x[j], y[j] = y[j], x[j]
		}
	case wToffoli:
		for j := range x {
			z[j] ^= x[j] & y[j]
		}
	case wFredkin:
		for j := range x {
			d := (y[j] ^ z[j]) & x[j]
			y[j] ^= d
			z[j] ^= d
		}
	case wMAJ, wFusedMAJ:
		for j := range x {
			a, b, c := x[j], y[j]^x[j], z[j]^x[j]
			x[j], y[j], z[j] = a^b&c, b, c
		}
	case wMAJInv, wFusedMAJInv:
		for j := range x {
			a := x[j] ^ y[j]&z[j]
			x[j], y[j], z[j] = a, y[j]^a, z[j]^a
		}
	case wFusedUMA:
		for j := range x {
			a := x[j] ^ y[j]&z[j]
			b := y[j] ^ a
			x[j], y[j], z[j] = a, b, z[j]^b
		}
	case wSWAP3:
		for j := range x {
			x[j], y[j], z[j] = y[j], z[j], x[j]
		}
	case wSWAP3Inv:
		for j := range x {
			x[j], y[j], z[j] = z[j], x[j], y[j]
		}
	case wInit3:
		for j := range x {
			x[j], y[j], z[j] = 0, 0, 0
		}
	}
}

// subStep applies sub-step k of the fused op o alone.
func (o *wideOp) subStep(st []uint64, K int, k int32) {
	x, y, z := o.wires(st, K)
	switch fusedSteps[o.code-wFusedMAJ][k] {
	case subAB:
		for j := range x {
			y[j] ^= x[j]
		}
	case subAC:
		for j := range x {
			z[j] ^= x[j]
		}
	case subBC:
		for j := range x {
			z[j] ^= y[j]
		}
	default:
		for j := range x {
			x[j] ^= y[j] & z[j]
		}
	}
}

// fault replaces lane e.lane of each wmask-selected target of o with
// one of e's replacement bits: bit 2 goes to target a, bit 1 to b and
// bit 0 to c.
func (o *wideOp) fault(st []uint64, wmask uint8, e event) {
	word, bit := int(e.lane>>6), uint(e.lane&63)
	b := uint64(e.bits)
	if wmask&1 != 0 {
		i := int(o.a) + word
		st[i] = st[i]&^(1<<bit) | b>>2<<bit
	}
	if wmask&2 != 0 {
		i := int(o.b) + word
		st[i] = st[i]&^(1<<bit) | b>>1&1<<bit
	}
	if wmask&4 != 0 {
		i := int(o.c) + word
		st[i] = st[i]&^(1<<bit) | b&1<<bit
	}
}

// RunNoiseless executes the program on st with every fault suppressed.
func (p *WideProgram) RunNoiseless(st WideState) {
	p.check(st)
	for i := range p.ops {
		p.ops[i].step(st.W, p.words)
	}
}

// maxGeomGap caps a geometric skip so a sampler's position can never
// overflow an int64.
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
// fault events, those on dropped ops' points included. The count covers
// every simulated lane slot of the block, including slots a harness later
// discards as excess, so a per-trial fault rate must be normalized by
// slots, not by counted trials.
//
// Run makes two passes over each chunk of the batch's faults. The first
// draws the fault schedule: each sampler's next fault is a position in
// its own concatenated (fault point, lane) sequence, started by one fresh
// gap per sampler so batches stay independent; each fault then takes one
// Uint64 for its replacement bits and the next gap, the samplers merged
// in fault-point order. The second walks the ops with a cursor on the
// next fault: an op whose points all come before it runs its whole kernel
// in one dispatch, and an op holding it runs sub-step by sub-step, each
// followed by its point's faults.
func (p *WideProgram) Run(st WideState, r *rng.RNG) int {
	p.check(st)
	w, K := st.W, p.words
	sc := schedule{p: p}
	sc.start(r)
	for i := range p.ops {
		o := &p.ops[i]
		if sc.ev[sc.e].pt >= o.pt+int32(o.ns) {
			o.step(w, K)
			continue
		}
		if o.ns == 1 {
			o.step(w, K)
			sc.apply(w, o, 0, r)
			continue
		}
		for k := int32(0); k < int32(o.ns); k++ {
			o.subStep(w, K, k)
			sc.apply(w, o, k, r)
		}
	}
	for sc.g < int64(p.points) {
		sc.draw(r)
	}
	return sc.faults
}

// event is one fault of a batch's schedule: its fault point, its lane,
// and the top three bits of its Uint64, which replace the lane's bits on
// targets a, b and c (bits 2, 1 and 0).
type event struct {
	pt   int32
	lane uint16
	bits uint8
}

// chunk is how many faults Run draws ahead of its walk. The schedule is
// drawn in chunks into a buffer on Run's stack, so a batch allocates
// nothing however many faults it holds.
const chunk = 256

// schedule is a batch's fault stream: for each sampler, the position of
// its next fault in its own (fault point, lane) sequence and the point
// that position falls on; and the chunk of faults drawn ahead, ev, with
// the walk's cursor e.
type schedule struct {
	p       *WideProgram
	pos, at [maxSamplers]int64
	s       int   // the sampler whose fault comes next
	g       int64 // its point; p.points once no fault is left
	faults  int   // faults drawn so far
	ev      [chunk + 1]event
	n, e    int // ev[n] is the chunk's end marker; ev[e] the walk's next fault
}

// start begins the stream with one fresh gap per sampler and draws its
// first chunk.
func (sc *schedule) start(r *rng.RNG) {
	p := sc.p
	for s := range p.samplers {
		sc.pos[s] = geomGap(r, p.samplers[s].invRate)
		sc.at[s] = p.pointAt(s, sc.pos[s])
	}
	sc.s, sc.g = p.earliest(sc.at[:len(p.samplers)])
	sc.draw(r)
}

// apply applies the faults on sub-step k's point of o to its targets,
// and passes over any before it, which are on dropped ops' points.
func (sc *schedule) apply(st []uint64, o *wideOp, k int32, r *rng.RNG) {
	pt := o.pt + k
	for sc.ev[sc.e].pt <= pt {
		switch {
		case sc.e == sc.n: // the chunk's end marker
			sc.draw(r)
		case sc.ev[sc.e].pt == pt:
			o.fault(st, o.wmask[k], sc.ev[sc.e])
			sc.e++
		default:
			sc.e++
		}
	}
}

// draw draws up to chunk faults into the buffer in stream order and ends
// them with a marker on the next pending fault's point (p.points when
// none is left).
func (sc *schedule) draw(r *rng.RNG) {
	p := sc.p
	last := int64(1)<<p.shift - 1
	at := sc.at[:len(p.samplers)]
	s, g := sc.s, sc.g
	n := 0
	for ; n < chunk && g < int64(p.points); n++ {
		u := r.Uint64()
		sc.ev[n] = event{pt: int32(g), lane: uint16(sc.pos[s] & last), bits: uint8(u >> 61)}
		sc.pos[s] += 1 + geomGap(r, p.samplers[s].invRate)
		at[s] = p.pointAt(s, sc.pos[s])
		s, g = p.earliest(at)
	}
	sc.ev[n] = event{pt: int32(g)}
	sc.s, sc.g = s, g
	sc.faults += n
	sc.n, sc.e = n, 0
}

// pointAt returns the fault point of position pos in sampler s's
// sequence, or p.points once pos is past its last point.
func (p *WideProgram) pointAt(s int, pos int64) int64 {
	pts := p.samplers[s].points
	if j := pos >> p.shift; j < int64(len(pts)) {
		return int64(pts[j])
	}
	return int64(p.points)
}

// earliest returns the sampler whose pending fault comes first and its
// fault point; the point is p.points when none is pending.
func (p *WideProgram) earliest(at []int64) (s int, g int64) {
	g = int64(p.points)
	for i, a := range at {
		if a < g {
			s, g = i, a
		}
	}
	return s, g
}

func (p *WideProgram) check(st WideState) {
	if st.Words != p.words {
		panic(fmt.Sprintf("lanes: state has %d words per wire, program wants %d", st.Words, p.words))
	}
	if st.Width() < p.width {
		panic(fmt.Sprintf("lanes: state width %d < program width %d", st.Width(), p.width))
	}
}
