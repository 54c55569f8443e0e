package lanes

// The compiler and interpreter of the engine. CompileWideFor lowers a
// circuit for a block of K words per wire (64·K trial lanes):
//
//   - Each dispatch advances all K·64 trials, so the interpreter walk
//     amortizes K-fold; K = 1 is the 64-lane engine.
//   - Each source op compiles to one wide op with one fault point, the
//     op's index in the source: the paper's error model puts one fault
//     location on each gate application.
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
// A batch is one walk over the ops fed by a fault producer, which fills
// the walk's next chunk of fault events (point, lane, replacement bits)
// in point order, keeping those on live points: Run's geometric sampler,
// or RunPlan's explicit per-lane plan. A by-point table names the op the
// next fault falls on, so the ops before it run as one call of the
// kernel loop with no look at the faults. Kernels loop over the K words
// of each wire at runtime rather than via per-K specializations: gc does
// not auto-vectorize either way, and unrolling the word loop measured no
// faster.
//
// Where a batch's time goes, on the level-2 gadget at the threshold
// sweep's ρ/2 with K = 8 (1,131 faults, 910 of them live, on 462 of 585
// walked ops; DESIGN.md, the lane engine's per-fault cost): about a
// quarter drawing the faults, about 1.6× the RNG draws alone since
// the draw loop keeps the generator in registers; a quarter in the
// kernels, as a noiseless walk; and the rest applying the faults, most
// of it in mispredicted branches on where the next fault falls.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// lane 64k+j. It decodes the first len(out) ≤ Words words, combining up
// to decodeChunk words at each majority node. It panics unless the block
// size is a power of three.
func (s WideState) DecodeBlock(wires []int, out []uint64) {
	if code.Level(len(wires)) < 0 {
		panic(fmt.Sprintf("lanes: DecodeBlock got %d wires, not a power of three", len(wires)))
	}
	var buf [decodeChunk]uint64
	for k0 := 0; k0 < len(out); k0 += decodeChunk {
		n := min(decodeChunk, len(out)-k0)
		s.decodeWords(wires, k0, buf[:n])
		copy(out[k0:], buf[:n])
	}
}

// decodeChunk is how many words DecodeBlock's majority nodes combine at
// once, in buffers on its stack.
const decodeChunk = 8

// decodeWords decodes words k0, k0+1, … of the block into out.
func (s WideState) decodeWords(wires []int, k0 int, out []uint64) {
	if len(wires) == 1 {
		copy(out, s.W[wires[0]*s.Words+k0:])
		return
	}
	if len(wires) == 3 {
		a, b, c := s.W[wires[0]*s.Words+k0:], s.W[wires[1]*s.Words+k0:], s.W[wires[2]*s.Words+k0:]
		a, b, c = a[:len(out)], b[:len(out)], c[:len(out)]
		for j := range out {
			out[j] = Majority(a[j], b[j], c[j])
		}
		return
	}
	third := len(wires) / 3
	var bb, cb [decodeChunk]uint64
	b, c := bb[:len(out)], cb[:len(out)]
	s.decodeWords(wires[:third], k0, out)
	s.decodeWords(wires[third:2*third], k0, b)
	s.decodeWords(wires[2*third:], k0, c)
	for j := range out {
		out[j] = Majority(out[j], b[j], c[j])
	}
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

// wideCode selects a wide kernel, one per gate kind.
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
)

// wideOp is one compiled wide instruction: one source op's kernel over up
// to three wires whose word indices were pre-multiplied by Words at
// compile time, and its fault point pt, the op's index in the source.
// After the kernel each lane independently faults with the point's
// probability, and a faulting lane's bits on the wmask-selected targets
// (bits 0/1/2: a/b/c) are replaced with uniform random bits — the paper's
// randomizing channel.
type wideOp struct {
	code    wideCode
	wmask   uint8
	a, b, c int32 // first-word indices (wire · Words); b, c unused below arity
	pt      int32
}

// wideSampler is one shared geometric fault sampler: all fault points
// compiled with the same probability draw their skip gaps from the same
// Geometric(p), over the concatenation of those points' lanes in program
// order.
type wideSampler struct {
	p       float64
	invRate float64  // λ⁻¹ = -1/log1p(-p), 0 at p = 1; see geomGap
	points  []uint32 // the fault points it serves, ascending, each with liveBit set when live
}

// liveBit marks a live fault point in a sampler's point list, so that
// the producer reads a fault's point and liveness in one load.
const liveBit = 1 << 31

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
	points       int32   // fault points = compiled ops, walked or not
	live         []uint8 // by fault point: 1 when a fault there can reach an output
	opAt         []int32 // by fault point, and p.points: the first walked op past no earlier point
	arity        []uint8 // by fault point: its source op's arity
}

// Width returns the number of wires the program expects.
func (p *WideProgram) Width() int { return p.width }

// Words returns the block width in 64-lane words.
func (p *WideProgram) Words() int { return p.words }

// Lanes returns the number of trial lanes per batch.
func (p *WideProgram) Lanes() int { return 64 * p.words }

// Len returns the number of compiled wide ops, the source length,
// including any Dead ones.
func (p *WideProgram) Len() int { return int(p.points) }

// Dead returns how many compiled ops Run skips because none of their
// targets reaches the wires the program was compiled for.
func (p *WideProgram) Dead() int { return int(p.points) - len(p.ops) }

// Fused returns 0: the compiler fuses no ops. It remains only for the
// benchmark module, whose perfbench/layers.go reports it.
func (p *WideProgram) Fused() int { return 0 }

// Samplers returns how many distinct fault probabilities the program's
// fault points were grouped into.
func (p *WideProgram) Samplers() int { return len(p.samplers) }

// maxWords bounds a program's block width so that a lane index fits a
// Fault's uint16.
const maxWords = 1024

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
// maxWords; fault probabilities outside [0, 1] clamp and NaN is 0,
// matching rng.Bool.
func CompileWideFor(c *circuit.Circuit, m noise.Model, words int, outs []int) *WideProgram {
	if words < 1 || words > maxWords || words&(words-1) != 0 {
		panic(fmt.Sprintf("lanes: CompileWide needs a power of two up to %d words per wire, got %d", maxWords, words))
	}
	p := &WideProgram{width: c.Width(), words: words, shift: uint(bits.TrailingZeros(uint(64 * words))),
		live: make([]uint8, c.Len()), arity: make([]uint8, c.Len())}
	ops := make([]wideOp, 0, c.Len())
	c.Each(func(i int, k gate.Kind, targets []int) {
		var t [3]int32
		for j, w := range targets {
			t[j] = int32(w)
		}
		ops = append(ops, wideOp{code: codeOf(k), wmask: uint8(1<<len(targets)) - 1, a: t[0], b: t[1], c: t[2], pt: int32(i)})
		if s := p.sampler(m.FaultProb(k)); s >= 0 {
			p.samplers[s].points = append(p.samplers[s].points, uint32(i))
		}
		p.arity[i] = uint8(len(targets))
	})
	p.points = int32(len(ops))
	if outs != nil {
		ops = prune(ops, p.width, outs)
	}
	p.opAt = make([]int32, p.points+1)
	pt := int32(0) // points below pt have their opAt entry
	for i := range ops {
		o := &ops[i]
		o.a, o.b, o.c = o.a*int32(words), o.b*int32(words), o.c*int32(words)
		for ; pt <= o.pt; pt++ {
			p.opAt[pt] = int32(i)
		}
		p.live[o.pt] = 1
	}
	for ; pt <= p.points; pt++ {
		p.opAt[pt] = int32(len(ops))
	}
	for _, sp := range p.samplers {
		for j, q := range sp.points {
			if p.live[q] != 0 {
				sp.points[j] |= liveBit
			}
		}
	}
	p.ops = ops
	return p
}

// Points returns the number of fault points, one per source op.
func (p *WideProgram) Points() int { return int(p.points) }

// Live reports whether a fault on point pt can change a wire the program
// was compiled for: its op is walked and the fault randomizes one of the
// op's live targets. A batch's outputs do not depend on its faults on
// other points.
func (p *WideProgram) Live(pt int) bool { return p.live[pt] != 0 }

// FaultBits returns the replacement bits of a fault on point pt that
// leaves the local value v on its source op's targets, targets[0] in bit
// 0 — the value sim.RunInjectedList writes: target i takes bit 2−i, for
// the targets the op has.
func (p *WideProgram) FaultBits(pt int, v uint64) uint8 {
	var b uint8
	for i := range int(p.arity[pt]) {
		b |= uint8(v>>uint(i)&1) << (2 - i)
	}
	return b
}

// WalkedFraction returns the probability that a lane of a batch holds at
// least d faults on live points, by the compiled fault probabilities: the
// share of lanes a caller that walks only those lanes walks.
func (p *WideProgram) WalkedFraction(d int) float64 {
	if d <= 0 {
		return 1
	}
	q := make([]float64, d) // q[k]: P(exactly k live faults) so far
	q[0] = 1
	for _, s := range p.samplers {
		for _, pt := range s.points {
			if pt&liveBit != 0 {
				for k := d - 1; k > 0; k-- {
					q[k] = q[k]*(1-s.p) + q[k-1]*s.p
				}
				q[0] *= 1 - s.p
			}
		}
	}
	f := 1.0
	for _, x := range q {
		f -= x
	}
	return max(0, f)
}

// sampler returns the index of the sampler of fault probability pr,
// clamped to [0, 1] with NaN as 0, adding one if there is none yet, or
// -1 when pr is 0. Samplers are numbered in order of first use.
func (p *WideProgram) sampler(pr float64) int {
	if pr = ClampProb(pr); pr == 0 {
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

// ClampProb is the fault probability a program compiles p to: p clamped
// to [0, 1], with NaN as 0 (rng.Bool(NaN) never fires either). Models
// whose probabilities clamp alike compile to the same program.
func ClampProb(p float64) float64 {
	switch {
	case !(p > 0):
		return 0
	case p > 1:
		return 1
	}
	return p
}

// prune is CompileWideFor's liveness pass over ops, whose a, b, c are
// still wire indices. Walking backward from outs, an op is live when one
// of its targets is live after it; a fault after it then randomizes only
// those targets, and every target of it is live before it, unless it is
// an INIT3, which overwrites its targets without reading them. An op with
// no live target is dropped.
func prune(ops []wideOp, width int, outs []int) []wideOp {
	live := make([]bool, width)
	for _, w := range outs {
		live[w] = true
	}
	for i := len(ops) - 1; i >= 0; i-- {
		o := &ops[i]
		wires := [3]int32{o.a, o.b, o.c}
		targets := o.wmask
		o.wmask = 0
		for r, w := range wires {
			if targets>>r&1 != 0 && live[w] {
				o.wmask |= 1 << r
			}
		}
		if o.wmask == 0 {
			continue
		}
		for r, w := range wires {
			if targets>>r&1 != 0 {
				live[w] = o.code != wInit3
			}
		}
	}
	walk := ops[:0]
	for _, o := range ops {
		if o.wmask != 0 {
			walk = append(walk, o)
		}
	}
	return walk
}

// codeOf maps a gate kind to its wide opcode.
func codeOf(k gate.Kind) wideCode {
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

// wires returns the K words of o's wires a, b and c; b and c alias wire
// 0 below arity 2 and 3. Slicing them once to one length lets the
// kernels' loops run without bounds checks.
func (o *wideOp) wires(st []uint64, K int) (x, y, z []uint64) {
	a := int(o.a)
	x = st[a : a+K : a+K]
	return x, st[o.b:][:len(x)], st[o.c:][:len(x)]
}

// run applies the kernels of ops in order to all K·64 lanes: a stretch of
// the walk, or the whole of RunNoiseless. It is the engine's one kernel
// switch.
func run(ops []wideOp, st []uint64, K int) {
	for i := range ops {
		o := &ops[i]
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
		case wMAJ:
			for j := range x {
				a, b, c := x[j], y[j]^x[j], z[j]^x[j]
				x[j], y[j], z[j] = a^b&c, b, c
			}
		case wMAJInv:
			for j := range x {
				a := x[j] ^ y[j]&z[j]
				x[j], y[j], z[j] = a, y[j]^a, z[j]^a
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
}

// RunNoiseless executes the program on st with every fault suppressed.
func (p *WideProgram) RunNoiseless(st WideState) {
	p.check(st)
	run(p.ops, st.W, p.words)
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
	return gapOf(r.ExpFloat64() * invRate)
}

// gapOf is the geometric gap of the scaled exponential draw f = E·λ⁻¹,
// capped at maxGeomGap.
func gapOf(f float64) int64 {
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
// Run is the geometric producer feeding the walk. It draws the fault
// schedule a chunk at a time: each sampler's next fault is a position in
// its own concatenated (fault point, lane) sequence, started by one fresh
// gap per sampler so batches stay independent; each fault then takes one
// Uint64 for its replacement bits and the next gap, the samplers merged
// in fault-point order, and the chunk keeps the faults on live points.
// The walk follows it as walk describes.
func (p *WideProgram) Run(st WideState, r *rng.RNG) int {
	p.check(st)
	sc := schedule{p: p, gen: stream{p: p, r: r}}
	sc.gen.start()
	sc.refill()
	p.walk(st.W, &sc)
	for sc.gen.g < int64(p.points) {
		sc.refill()
	}
	return sc.gen.faults
}

// Draw draws a batch's fault schedule with exactly Run's randomness and
// returns it without walking: it appends the faults on live points to
// live, in point order, and returns the extended slice with the count of
// every fault, as Run would. Walking the appended faults with RunPlan
// leaves the wires the program was compiled for as Run leaves them.
func (p *WideProgram) Draw(r *rng.RNG, live []Fault) ([]Fault, int) {
	gen := stream{p: p, r: r}
	gen.start()
	for {
		if len(live) == cap(live) {
			live = slices.Grow(live, chunk)
		}
		n := gen.fill(live[len(live):cap(live)])
		live = live[:len(live)+n]
		if gen.g >= int64(p.points) {
			return live, gen.faults
		}
	}
}

// RunPlan executes the program on st with exactly the faults of plan,
// in point order (ascending Point; any lane order within a point), and no
// other: the plan producer feeding the walk. A fault's Bits come from the
// geometric producer (Draw) or FaultBits. It panics when plan is out of
// order or names a point or lane outside the program.
func (p *WideProgram) RunPlan(st WideState, plan []Fault) {
	p.check(st)
	sc := schedule{p: p, plan: plan}
	sc.refill()
	p.walk(st.W, &sc)
}

// walk runs the ops on st, applying the producer's faults after their
// kernels. The op the next fault falls on or after, j, comes from the
// by-point table opAt, so the ops up to it run as one stretch of kernels
// with no look at the faults; op j then takes its faults.
func (p *WideProgram) walk(st []uint64, sc *schedule) {
	K, ops, opAt := p.words, p.ops, p.opAt
	for i := 0; ; {
		j := int(opAt[sc.ev[sc.e].Point])
		if j == len(ops) {
			run(ops[i:], st, K)
			return
		}
		run(ops[i:j+1], st, K)
		sc.apply(st, &ops[j])
		i = j + 1
	}
}

// apply applies the faults on o's point to its wmask-selected targets, in
// each fault's lane: bit 2 of its Bits goes to target a, bit 1 to b and
// bit 0 to c. It passes over any faults before that point, which are on
// dropped ops' points.
func (sc *schedule) apply(st []uint64, o *wideOp) {
	pt, wm := o.pt, o.wmask
	a, b, c := int(o.a), int(o.b), int(o.c)
	e, n := sc.e, sc.n
	for {
		f := sc.ev[e]
		if f.Point > pt {
			break
		}
		if e == n { // the chunk's end marker
			sc.refill()
			e, n = 0, sc.n
			continue
		}
		e++
		if f.Point < pt {
			continue
		}
		word, bit := int(f.Lane>>6), uint(f.Lane&63)
		keep, v := ^(uint64(1) << bit), uint64(f.Bits)
		if wm&1 != 0 {
			st[a+word] = st[a+word]&keep | v>>2<<bit
		}
		if wm&2 != 0 {
			st[b+word] = st[b+word]&keep | v>>1&1<<bit
		}
		if wm&4 != 0 {
			st[c+word] = st[c+word]&keep | v&1<<bit
		}
	}
	sc.e = e
}

// Fault is one fault event of a batch: its fault point (the index of its
// source op), its lane, and the bits that replace the lane's bits on its
// op's targets a, b and c (bits 2, 1 and 0; the geometric producer takes
// the top three bits of one Uint64).
type Fault struct {
	Point int32
	Lane  uint16
	Bits  uint8
}

// chunk is how many faults a producer fills ahead of the walk. The chunk
// is a buffer on the caller's stack, so a batch allocates nothing however
// many faults it holds.
const chunk = 256

// schedule is a batch's fault stream as the walk reads it: the chunk of
// faults filled ahead, ev, with the walk's cursor e, and the producer
// that fills it — the geometric stream gen when it has a generator, the
// plan's unread tail otherwise.
type schedule struct {
	p    *WideProgram
	ev   [chunk + 1]Fault
	n, e int // ev[n] is the chunk's end marker; ev[e] the walk's next fault
	gen  stream
	plan []Fault
}

// stream is the geometric producer: for each sampler, the position of
// its next fault in its own (fault point, lane) sequence and the point
// that position falls on.
type stream struct {
	p       *WideProgram
	r       *rng.RNG
	pos, at [maxSamplers]int64
	s       int   // the sampler whose fault comes next
	g       int64 // its point; p.points once no fault is left
	faults  int   // faults drawn so far
}

// start begins the stream with one fresh gap per sampler.
func (gs *stream) start() {
	p := gs.p
	for s := range p.samplers {
		gs.pos[s] = geomGap(gs.r, p.samplers[s].invRate)
		gs.at[s] = p.pointAt(s, gs.pos[s])
	}
	gs.s, gs.g = p.earliest(gs.at[:len(p.samplers)])
}

// fill draws faults in stream order, keeping those on live points in
// dst, until dst is full or no fault is left, and returns how many it
// kept. The generator and the sampler's position live in locals for the
// whole loop, and every draw but the ziggurat's rare slow path inlines.
// A program with one sampler takes a loop without the merge of samplers.
func (gs *stream) fill(dst []Fault) int {
	p := gs.p
	points := int64(p.points)
	if gs.g >= points {
		return 0
	}
	if len(p.samplers) == 1 {
		return gs.fillOne(dst)
	}
	r, s, g := *gs.r, gs.s, gs.g
	last, live := int64(1)<<p.shift-1, p.live
	n, drawn := 0, 0
	for n < len(dst) && g < points {
		var u uint64
		r, u = r.Next()
		dst[n] = Fault{Point: int32(g), Lane: uint16(gs.pos[s] & last), Bits: uint8(u >> 61)}
		n += int(live[g]) // branch-free: the next fault overwrites a dead one
		drawn++
		r, u = r.Next()
		x, ok := rng.ExpFast(u)
		if !ok {
			r, x = r.ExpSlow(u)
		}
		gs.pos[s] += 1 + gapOf(x*p.samplers[s].invRate)
		gs.at[s] = p.pointAt(s, gs.pos[s])
		s, g = p.earliest(gs.at[:len(p.samplers)])
	}
	*gs.r = r
	gs.s, gs.g = s, g
	gs.faults += drawn
	return n
}

// fillOne is fill for a program with one sampler, whose next fault's
// point is the one its position falls on.
func (gs *stream) fillOne(dst []Fault) int {
	p := gs.p
	sp := &p.samplers[0]
	r, pos, inv, pts := *gs.r, gs.pos[0], sp.invRate, sp.points
	shift, last := p.shift&63, int64(1)<<p.shift-1
	n, drawn := 0, 0
	for n < len(dst) {
		j := pos >> shift
		if j >= int64(len(pts)) {
			break
		}
		pt := pts[j]
		var u uint64
		r, u = r.Next()
		dst[n] = Fault{Point: int32(pt &^ liveBit), Lane: uint16(pos & last), Bits: uint8(u >> 61)}
		n += int(pt >> 31) // branch-free: the next fault overwrites a dead one
		drawn++
		r, u = r.Next()
		x, ok := rng.ExpFast(u)
		if !ok {
			r, x = r.ExpSlow(u)
		}
		pos += 1 + gapOf(x*inv)
	}
	*gs.r = r
	gs.pos[0], gs.g = pos, p.pointAt(0, pos)
	gs.faults += drawn
	return n
}

// refill fills the chunk from the producer and ends it with a marker on
// the next pending fault's point (p.points when none is left).
func (sc *schedule) refill() {
	if sc.gen.r == nil {
		sc.copyPlan()
		return
	}
	n := sc.gen.fill(sc.ev[:chunk])
	sc.ev[n] = Fault{Point: int32(sc.gen.g)}
	sc.n, sc.e = n, 0
}

// copyPlan copies up to chunk faults of the plan into the buffer, checked,
// and ends them with a marker on the next one's point (p.points when none
// is left).
func (sc *schedule) copyPlan() {
	p := sc.p
	prev := int32(0)
	if sc.n > 0 {
		prev = sc.ev[sc.n-1].Point
	}
	n := copy(sc.ev[:chunk], sc.plan)
	sc.plan = sc.plan[n:]
	next := p.points
	if len(sc.plan) > 0 {
		next = sc.plan[0].Point
	}
	lanes := 64 * p.words
	for _, f := range sc.ev[:n] {
		if f.Point < prev || f.Point >= p.points || int(f.Lane) >= lanes {
			panic(fmt.Sprintf("lanes: RunPlan fault %+v out of order or outside %d points and %d lanes", f, p.points, lanes))
		}
		prev = f.Point
	}
	if next < prev || len(sc.plan) > 0 && next >= p.points {
		panic(fmt.Sprintf("lanes: RunPlan fault on point %d after point %d, or outside %d points", next, prev, p.points))
	}
	sc.ev[n] = Fault{Point: next}
	sc.n, sc.e = n, 0
}

// pointAt returns the fault point of position pos in sampler s's
// sequence, or p.points once pos is past its last point.
func (p *WideProgram) pointAt(s int, pos int64) int64 {
	pts := p.samplers[s].points
	if j := pos >> p.shift; j < int64(len(pts)) {
		return int64(pts[j] &^ liveBit)
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
