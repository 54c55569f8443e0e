package core

// The lane audit: it certifies, once per target and input domain, a fault
// count d below which no lane fails: 3 when no single fault or pair of
// faults on live points fails on any values and input, 2 when only the
// single faults pass, 1 when only the noiseless run is right, 0
// otherwise. It walks the inputs in chunks of eight and only lowers d:
// every chunk runs noiselessly, while d ≥ 2 is possible every live
// point's single fault, and while d = 3 is possible the pairs. A pair
// needs simulating only while its first fault is still observable
// downstream, and then only where it differs from that fault alone, so
// the audit re-simulates a few ops per pair instead of walking every pair
// through the whole circuit.
//
//   - Absorption. Fault i's trajectory, 64 lanes of (value, input) in one
//     word per wire, is walked only through the ops that touch a wire on
//     which it differs from the noiseless run and is live (a wire is live
//     after an op when its value can still reach a decoded output: the
//     liveness CompileWideFor prunes by). Once no live wire differs, the
//     fault is absorbed: a second fault after that point meets the
//     noiseless state on every live wire and fails exactly when it fails
//     alone, which its own single walk settles. A second fault whose
//     targets cover every wire on which fault i still differs overwrites
//     the difference and is settled the same way.
//   - Pairs apart. Fault j's own walk, recorded once per chunk, is what
//     a pair (i, j) walks as long as it visits no op fault i's walk
//     visited: on those ops fault i's trajectory is the noiseless run. A
//     pair whose second fault's walk never meets the first's fails where
//     fault i alone does when j's walk is absorbed, and otherwise is
//     decoded from the two walks' differences at the end of the circuit.
//   - Pairs that meet. Each remaining pair runs 512 lanes of (value of
//     j, value of i, input) in eight words per wire, sparsely: only the
//     wires on which it differs from fault i's trajectory are held, only
//     the ops touching them are visited, and the walk stops when none is
//     left, since the pair then fails exactly when fault i alone does.
//     The outputs are decoded only when a difference reaches the end of
//     the circuit, and only the codewords it reached.
//
// The single-fault walks also yield each fault's absorption window, lane
// by lane: the op after which no live wire differs from the noiseless
// run. A certificate of d = 3 keeps them (windows), and compacting
// batches drop a lane's leading fault when its next fault lies at or
// past that op, since the lane then fails exactly when its other faults
// alone do.

import (
	"math"
	"math/bits"

	"revft/internal/gate"
	"revft/internal/lanes"
)

// auditBudget is the lane audit's cut-off, checked before any walk: a
// domain of more inputs certifies d = 0, and one whose single faults on
// live points, every value of each on every input, are more d = 1. The
// level-2 gadget has 37,440 such faults; the level-3 gadget's exceed it.
const auditBudget = 1 << 18

// pairBudget bounds the lane audit's work, summed over its input chunks:
// one unit per op a single-fault or pair walk re-simulates and per pair
// looked at. A chunk whose single walks end past it certifies at most
// d = 1, and pairs past it at most d = 2. The level-2 gadget's audit
// takes about 8e4.
const pairBudget = 1 << 20

// chunkInputs is how many logical inputs one pass of the audit covers:
// the input is the low three bits of a lane index.
const chunkInputs = 8

// valueBits are, for each target k of a faulted op, the lanes of a word
// whose fault value has bit k set: byte v of the word is the lanes of
// value v, and bit c of a byte those of the chunk's input c. A single
// fault's walk runs one such word per wire; a pair's runs eight, word w
// for the second fault's value w, each the first fault's word.
var valueBits = func() (vb [3]uint64) {
	for k := range vb {
		for v := 0; v < 8; v++ {
			if v>>k&1 != 0 {
				vb[k] |= 0xff << (8 * v)
			}
		}
	}
	return vb
}()

// maxWindows bounds the entries of a windows table (2 bytes each); a
// target whose table would be larger keeps none.
const maxWindows = 1 << 22

// windows are the absorption windows of every single fault on a live
// point of a target, for one input domain: the op after which no live
// wire differs from the noiseless run any more, len(ops) when a
// difference reaches the end of the circuit, and the fault's own op when
// it changes no live wire. They are indexed by the fault's point, its
// replacement bits as FaultBits writes them (bits of targets the op does
// not have are ignored) and the input's index in the domain. A fault
// after the window meets the noiseless state on every live wire, so a
// lane whose next fault lies at or past its first fault's window fails
// exactly when the lane without that first fault does.
type windows struct {
	at    []int16 // by (point<<3 | bits)<<shift | input
	shift uint    // log2 of the domain's inputs
}

// newWindows returns an empty table for a stage of n ops over a domain of
// 1<<shift inputs, or nil when op indices do not fit an int16 or the
// table would exceed maxWindows entries.
func newWindows(n int, shift uint) *windows {
	if n > math.MaxInt16 || shift > 18 || n<<3<<shift > maxWindows {
		return nil
	}
	return &windows{at: make([]int16, n<<3<<shift), shift: shift}
}

// pairOp is one source op as the pair stage walks it.
type pairOp struct {
	kind gate.Kind
	n    int      // arity
	w    [3]int32 // target wires
	live uint8    // bit k: target k is live after the op
	next [3]int32 // by target: the next op touching its wire, len(ops) if none
}

// pairStage is a target's circuit laid out for the pair stage: its ops
// with their liveness and next-touch links, and which decoded codeword
// each wire belongs to.
type pairStage struct {
	t     Target
	ops   []pairOp
	block []int32 // by wire: the Out operand whose codeword holds it, -1 if none
}

func newPairStage(t Target) *pairStage {
	width := t.Circuit.Width()
	s := &pairStage{t: t, ops: make([]pairOp, t.Circuit.Len()), block: make([]int32, width)}
	t.Circuit.Each(func(i int, k gate.Kind, targets []int) {
		o := &s.ops[i]
		o.kind, o.n = k, len(targets)
		for j, w := range targets {
			o.w[j] = int32(w)
		}
	})
	live := make([]bool, width)
	for i := range s.block {
		s.block[i] = -1
	}
	for o, wires := range t.Out {
		for _, w := range wires {
			live[w], s.block[w] = true, int32(o)
		}
	}
	next := make([]int32, width)
	for i := range next {
		next[i] = int32(len(s.ops))
	}
	// Backward, as CompileWideFor's liveness pass: an op with a live
	// target after it makes every target live before it, unless it is an
	// INIT3, which overwrites its targets without reading them.
	for i := len(s.ops) - 1; i >= 0; i-- {
		o := &s.ops[i]
		for k, w := range o.w[:o.n] {
			if live[w] {
				o.live |= 1 << k
			}
			o.next[k] = next[w]
		}
		for _, w := range o.w[:o.n] {
			if o.live != 0 {
				live[w] = o.kind != gate.Init3
			}
			next[w] = int32(i)
		}
	}
	return s
}

// livePoint reports whether a fault on op i can reach a decoded output;
// it equals the compiled program's Live.
func (s *pairStage) livePoint(i int) bool { return s.ops[i].live != 0 }

// pairChunk is the noiseless run of one chunk of inputs, input c in bit
// c of every byte of a word (replicated so that a word of any layout
// reads it on every lane).
type pairChunk struct {
	nb, na [][3]uint64 // by op: its targets' values before and after it
	fin    []uint64    // by wire: the final value
	want   []uint64    // by Out operand: the logical output
	nx     int         // the chunk's inputs; lanes past them repeat its first
}

// noiseless runs the chunk of inputs ins (at most chunkInputs) into p.ch
// and reports whether every output decodes right.
func (p *pairWalker) noiseless(ins []uint64) bool {
	s, ch, t := p.s, &p.ch, p.s.t
	var xs, ys [chunkInputs]uint64 // by lane: the input and its logical output
	for c := range xs {
		xs[c] = ins[0]
		if c < len(ins) {
			xs[c] = ins[c]
		}
		ys[c] = t.Logical.Eval(xs[c])
	}
	rep := func(vs *[chunkInputs]uint64, o int) uint64 { // bit o of each lane's value
		var b uint64
		for c, v := range vs {
			b |= (v >> uint(o) & 1) << c
		}
		return b * 0x0101010101010101
	}
	st := make([]uint64, t.Circuit.Width())
	for o, wires := range t.In {
		v := rep(&xs, o)
		for _, w := range wires {
			st[w] = v
		}
	}
	if ch.nb == nil {
		ch.nb, ch.na = make([][3]uint64, len(s.ops)), make([][3]uint64, len(s.ops))
		ch.want = make([]uint64, len(t.Out))
	}
	ch.nx = len(ins)
	var ws [3][]uint64
	for i := range s.ops {
		o := &s.ops[i]
		for k, w := range o.w[:o.n] {
			ch.nb[i][k] = st[w]
			ws[k] = st[w : w+1]
		}
		lanes.EvalWide(o.kind, ws[:o.n])
		for k, w := range o.w[:o.n] {
			ch.na[i][k] = st[w]
		}
	}
	ch.fin = st
	for o, wires := range t.Out {
		ch.want[o] = rep(&ys, o)
		for k, w := range wires {
			p.blk.Wire(k)[0] = st[w]
		}
		if p.wrong(o, 1)[0] != 0 {
			return false
		}
	}
	return true
}

// wrong decodes Out operand o from the codeword its caller wrote onto
// blk's first wires and returns, on the first nw words, the lanes where
// it differs from the logical output.
func (p *pairWalker) wrong(o, nw int) (fail [8]uint64) {
	p.blk.DecodeBlock(p.ident[:len(p.s.t.Out[o])], fail[:nw])
	for v := range fail[:nw] {
		fail[v] ^= p.ch.want[o]
	}
	return fail
}

// expand spreads a single fault's word over a pair's eight: byte w of s
// is the lanes of fault value w, and word w of a pair those of the second
// fault's value w, for every value of the first.
func expand(s uint64) (out [8]uint64) {
	for w := range out {
		out[w] = s >> (8 * w) & 0xff * 0x0101010101010101
	}
	return out
}

// wireSet is a sparse set of wires, each with the next op touching it.
type wireSet struct {
	pos   []int32 // by wire: its index in wires, -1 when absent
	next  []int32 // by wire in the set: the next op touching it
	wires []int32
}

func newWireSet(width int) wireSet {
	s := wireSet{pos: make([]int32, width), next: make([]int32, width)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

func (s *wireSet) has(w int32) bool { return s.pos[w] >= 0 }

func (s *wireSet) put(w, next int32) {
	if s.pos[w] < 0 {
		s.pos[w] = int32(len(s.wires))
		s.wires = append(s.wires, w)
	}
	s.next[w] = next
}

func (s *wireSet) drop(w int32) {
	p := s.pos[w]
	if p < 0 {
		return
	}
	last := s.wires[len(s.wires)-1]
	s.wires[p], s.pos[last] = last, p
	s.wires = s.wires[:len(s.wires)-1]
	s.pos[w] = -1
}

func (s *wireSet) clear() {
	for _, w := range s.wires {
		s.pos[w] = -1
	}
	s.wires = s.wires[:0]
}

// first returns the earliest op touching a wire of the set, end when the
// set is empty.
func (s *wireSet) first(end int32) int32 {
	m := end
	for _, w := range s.wires {
		m = min(m, s.next[w])
	}
	return m
}

// pairAudit is the lane audit's result for one input domain.
type pairAudit struct {
	// d is the certified fault count: a lane with fewer than d faults on
	// live points cannot fail.
	d int
	// fails counts the failing (pair, values, input) cases over every
	// pair of ops, live or not, and malignant each failing pair's cases;
	// singles is, by chunk and op, the failing lanes of the op's single
	// fault (zero when it is not live). All three are kept only when the
	// audit counted (see auditPairs).
	fails     int
	malignant map[[2]int]int
	singles   []uint64
	// pairs is how many pairs inside a window were looked at, met how
	// many of them were walked, and work the budget's units spent.
	pairs, met, work int
	// win holds every live point's absorption windows over the domain
	// when the audit certified d = 3 or counted (nil when the table would
	// be too large).
	win *windows
}

// pairWalker is the lane audit's scratch state for one target and input
// domain.
type pairWalker struct {
	s  *pairStage
	ch pairChunk
	// fault i's trajectory, valid where rec or skip holds its stamp
	d          []uint64    // by wire in ds: its difference from the noiseless run
	ds         wireSet     // the live wires on which it differs
	sb, sa     [][3]uint64 // by op visited: its targets' values before and after
	rec, skip  []int32     // by op: the stamp of the walk that visited it / that it covers
	stamp      int32
	reachedEnd bool    // the walk's difference reached the end of the circuit
	visited    []int32 // the ops the walk visited, its faulted op first
	// every live point's own walk in the chunk: the ops it visited, the
	// difference it reached the end with and its failing lanes, by point
	walks walkLog
	// the pair's difference from fault i's trajectory
	e         [][8]uint64
	es        wireSet
	blk       lanes.WideState // a codeword's wires, for decoding
	ident     []int           // 0, 1, 2, …: blk's wires
	seen      []int32         // by Out operand: the decode that last decoded it
	decodes   int32
	met, work int
	// the absorption windows: by lane of the last single walk, the op
	// that absorbed it; the table the chunk's walks are logged into (nil:
	// none), and the chunk's first input
	window [64]int32
	win    *windows
	base   int
}

// walkLog is a chunk's single-fault walks, flat: point j's visited ops
// are ops[at[j]:at[j+1]], its difference at the end is wires and diffs
// [fin[j]:fin[j+1]], empty when it was absorbed, and fails[j] its failing
// lanes.
type walkLog struct {
	at, fin []int32
	ops     []int32
	wires   []int32
	diffs   []uint64
	fails   []uint64
}

func (s *pairStage) newWalker() *pairWalker {
	width, n := s.t.Circuit.Width(), len(s.ops)
	var ident []int
	for _, wires := range s.t.Out {
		for len(ident) < len(wires) {
			ident = append(ident, len(ident))
		}
	}
	return &pairWalker{
		s: s, d: make([]uint64, width), ds: newWireSet(width),
		sb: make([][3]uint64, n), sa: make([][3]uint64, n), rec: make([]int32, n), skip: make([]int32, n),
		walks: walkLog{at: make([]int32, n+1), fin: make([]int32, n+1), fails: make([]uint64, n)},
		e:     make([][8]uint64, width), es: newWireSet(width),
		blk: lanes.NewWideState(max(1, len(ident)), 8), ident: ident, seen: make([]int32, len(s.t.Out)),
	}
}

// logWalks walks every live point's fault alone, logs the walks and
// reports whether a lane of any of them fails.
func (p *pairWalker) logWalks() (failed bool) {
	l := &p.walks
	l.ops, l.wires, l.diffs = l.ops[:0], l.wires[:0], l.diffs[:0]
	for j := range p.s.ops {
		l.fails[j] = 0
		if p.s.livePoint(j) {
			p.single(j)
			l.ops = append(l.ops, p.visited...)
			if p.reachedEnd {
				for _, w := range p.ds.wires {
					l.wires, l.diffs = append(l.wires, w), append(l.diffs, p.d[w])
				}
				l.fails[j] = p.singleFails()
				failed = failed || l.fails[j] != 0
			}
		}
		l.at[j+1], l.fin[j+1] = int32(len(l.ops)), int32(len(l.wires))
	}
	return failed
}

// single walks fault i's trajectory, every value and input of the chunk,
// until it is absorbed or reaches the end, recording each visited op's
// values and each lane's window, and returns the op past its window: the
// op that absorbed it, or len(ops).
func (p *pairWalker) single(i int) int {
	ops, ch := p.s.ops, &p.ch
	end := int32(len(ops))
	p.stamp++
	p.ds.clear()
	p.visited = append(p.visited[:0], int32(i))
	o := &ops[i]
	for k, w := range o.w[:o.n] {
		if o.live>>k&1 != 0 {
			p.d[w] = valueBits[k] ^ ch.na[i][k]
			p.ds.put(w, o.next[k])
		}
	}
	alive := p.differing()
	p.absorb(^alive, int32(i))
	var vals [3]uint64
	var ws [3][]uint64
	m := int32(i)
	for len(p.ds.wires) > 0 {
		if m = p.ds.first(end); m == end {
			p.absorb(alive, end)
			p.reachedEnd = true
			return int(end)
		}
		o := &ops[m]
		for k, w := range o.w[:o.n] {
			vals[k] = ch.nb[m][k]
			if p.ds.has(w) {
				vals[k] ^= p.d[w]
			}
			ws[k] = vals[k : k+1]
		}
		p.sb[m] = vals
		lanes.EvalWide(o.kind, ws[:o.n])
		p.sa[m], p.rec[m] = vals, p.stamp
		p.visited = append(p.visited, m)
		for k, w := range o.w[:o.n] {
			if dv := vals[k] ^ ch.na[m][k]; o.live>>k&1 != 0 && dv != 0 {
				p.d[w] = dv
				p.ds.put(w, o.next[k])
			} else {
				p.ds.drop(w)
			}
		}
		p.work++
		if p.covered(o) {
			p.skip[m] = p.stamp
		}
		now := p.differing()
		p.absorb(alive&^now, m)
		alive = now
	}
	p.reachedEnd = false
	return int(m)
}

// differing returns the lanes on which the trajectory differs from the
// noiseless run on some live wire.
func (p *pairWalker) differing() uint64 {
	var m uint64
	for _, w := range p.ds.wires {
		m |= p.d[w]
	}
	return m
}

// absorb sets the window of the lanes in m to op.
func (p *pairWalker) absorb(m uint64, op int32) {
	for ; m != 0; m &= m - 1 {
		p.window[bits.TrailingZeros64(m)] = op
	}
}

// record logs the windows of point j's walk, as single last walked it,
// into the table, for every replacement bits and every input of the
// chunk: bits b leave target k the value's bit 2−k, as FaultBits.
func (p *pairWalker) record(j int) {
	if p.win == nil {
		return
	}
	n := p.s.ops[j].n
	for b := 0; b < 8; b++ {
		v := 0
		for k := 0; k < n; k++ {
			v |= b >> (2 - k) & 1 << k
		}
		row := (j<<3|b)<<p.win.shift + p.base
		for c := 0; c < p.ch.nx; c++ {
			p.win.at[row+c] = int16(p.window[8*v+c])
		}
	}
}

// covered reports whether every wire of the trajectory's difference is a
// target of o, so that a second fault on o overwrites all of it.
func (p *pairWalker) covered(o *pairOp) bool {
	for _, w := range p.ds.wires {
		if w != o.w[0] && (o.n < 2 || w != o.w[1]) && (o.n < 3 || w != o.w[2]) {
			return false
		}
	}
	return true
}

// before and after are fault i's trajectory's values of op m's target k
// before and after the op: the recorded ones where its walk visited m,
// the noiseless ones where it did not.
func (p *pairWalker) before(m int32, k int) uint64 {
	if p.rec[m] == p.stamp {
		return p.sb[m][k]
	}
	return p.ch.nb[m][k]
}

func (p *pairWalker) after(m int32, k int) uint64 {
	if p.rec[m] == p.stamp {
		return p.sa[m][k]
	}
	return p.ch.na[m][k]
}

// pair runs fault i (whose trajectory single last walked) with a second
// fault on op j, every value of both and every input of the chunk. It
// returns the lanes that fail, and whether the pair's difference from
// fault i alone reached the end: when it did not, the pair fails exactly
// where fault i alone does.
func (p *pairWalker) pair(j int) (fail [8]uint64, reached bool) {
	p.work++
	l := &p.walks
	for _, m := range l.ops[l.at[j]:l.at[j+1]] {
		if p.rec[m] == p.stamp {
			return p.walk(j)
		}
	}
	// Apart: the pair's difference is fault j's own.
	if l.fin[j] == l.fin[j+1] {
		return fail, false
	}
	p.es.clear()
	for f := l.fin[j]; f < l.fin[j+1]; f++ {
		w := l.wires[f]
		p.e[w] = expand(l.diffs[f])
		p.es.put(w, int32(len(p.s.ops)))
	}
	return p.decode(), true
}

// walk is pair for two faults whose walks meet, walked op by op.
func (p *pairWalker) walk(j int) (fail [8]uint64, reached bool) {
	p.met++
	ops := p.s.ops
	end := int32(len(ops))
	p.es.clear()
	o := &ops[j]
	for k, w := range o.w[:o.n] {
		if o.live>>k&1 == 0 {
			continue
		}
		e, s := &p.e[w], p.after(int32(j), k)
		for v := range e {
			e[v] = -uint64(v>>k&1) ^ s
		}
		p.es.put(w, o.next[k])
	}
	var vals [3][8]uint64
	var ws [3][]uint64
	for len(p.es.wires) > 0 {
		m := p.es.first(end)
		if m == end {
			return p.decode(), true
		}
		o := &ops[m]
		for k, w := range o.w[:o.n] {
			x, s := &vals[k], p.before(m, k)
			if p.es.has(w) {
				e := &p.e[w]
				for v := range x {
					x[v] = s ^ e[v]
				}
			} else {
				for v := range x {
					x[v] = s
				}
			}
			ws[k] = x[:]
		}
		lanes.EvalWide(o.kind, ws[:o.n])
		for k, w := range o.w[:o.n] {
			if o.live>>k&1 == 0 {
				p.es.drop(w)
				continue
			}
			e, x, s := &p.e[w], &vals[k], p.after(m, k)
			nz := uint64(0)
			for v := range e {
				e[v] = x[v] ^ s
				nz |= e[v]
			}
			if nz != 0 {
				p.es.put(w, o.next[k])
			} else {
				p.es.drop(w)
			}
		}
		p.work++
	}
	return fail, false
}

// decode decodes the codewords the pair's difference reached, and those
// fault i's reached, and returns the lanes whose output is wrong.
func (p *pairWalker) decode() (fail [8]uint64) {
	p.decodes++
	fail = p.decodeAt(p.es.wires, fail)
	if p.reachedEnd {
		fail = p.decodeAt(p.ds.wires, fail)
	}
	return fail
}

// decodeAt adds to fail the lanes whose output is wrong on the codewords
// holding the given wires that this decode has not decoded yet.
func (p *pairWalker) decodeAt(wires []int32, fail [8]uint64) [8]uint64 {
	for _, w := range wires {
		if o := p.s.block[w]; o >= 0 && p.seen[o] != p.decodes {
			p.seen[o] = p.decodes
			got := p.decodeBlock(o)
			for v := range fail {
				fail[v] |= got[v]
			}
		}
	}
	return fail
}

// decodeBlock returns the pair's lanes whose Out operand o is wrong.
func (p *pairWalker) decodeBlock(o int32) [8]uint64 {
	for k, w := range p.s.t.Out[o] {
		f := p.ch.fin[w]
		if p.reachedEnd && p.ds.has(int32(w)) {
			f ^= p.d[w]
		}
		x := p.blk.Wire(k)
		for v := range x {
			x[v] = f
			if p.es.has(int32(w)) {
				x[v] ^= p.e[w][v]
			}
		}
	}
	return p.wrong(int(o), 8)
}

// singleFails returns the lanes of fault i's trajectory, as single last
// walked it, whose output is wrong.
func (p *pairWalker) singleFails() uint64 {
	if !p.reachedEnd {
		return 0
	}
	fail := uint64(0)
	for o, wires := range p.s.t.Out {
		for k, w := range wires {
			x := p.blk.Wire(k)
			x[0] = p.ch.fin[w]
			if p.ds.has(int32(w)) {
				x[0] ^= p.d[w]
			}
		}
		fail |= p.wrong(o, 1)[0]
	}
	return fail
}

// auditPairs runs the lane audit on the inputs of in — every input under
// Uniform, one under Fixed — within budget units of work (see
// pairBudget) and returns the d it certifies. Certifying (count false),
// it walks a chunk's single faults only while d ≥ 2 is possible, and the
// pairs inside each first fault's window only while d = 3 is, up to the
// first failing lane. Counting, it walks every single fault and every
// pair of every chunk and counts the failing cases of every pair of ops,
// the pairs outside a window or of a point that is not live from the
// single faults' own outcomes, as Target.forEachPair enumerates them; it
// needs only a right noiseless run.
func (t Target) auditPairs(in Input, budget int, count bool) pairAudit {
	nin := uint64(1)
	if !in.fixed {
		nin <<= uint(len(t.In))
	}
	if nin > auditBudget {
		return pairAudit{}
	}
	s := newPairStage(t)
	n := len(s.ops)
	a := pairAudit{d: 3}
	faults := uint64(0)
	for i := range s.ops {
		if s.livePoint(i) {
			faults += nin << uint(s.ops[i].n)
		}
	}
	if faults > auditBudget {
		a.d = 1
	}
	if count {
		a.malignant = make(map[[2]int]int)
	}
	p := s.newWalker()
	var ins []uint64
	for c := uint64(0); c < nin; c += chunkInputs {
		p.base = int(c)
		ins = ins[:0]
		for x := c; x < min(c+chunkInputs, nin); x++ {
			if in.fixed {
				ins = append(ins, in.in)
			} else {
				ins = append(ins, x)
			}
		}
		if !p.noiseless(ins) {
			return pairAudit{met: p.met, work: p.work}
		}
		if a.d < 2 && !count {
			continue
		}
		// Single walks that end past the budget certify nothing.
		if p.work > budget || p.logWalks() || p.work > budget {
			a.d = 1
		}
		if count {
			a.singles = append(a.singles, p.walks.fails...)
		} else if a.d < 3 {
			continue
		}
		if c == 0 {
			p.win = newWindows(n, uint(bits.TrailingZeros64(nin)))
		}
	pairs:
		for i := 0; i < n && p.work <= budget; i++ {
			if !s.livePoint(i) {
				if count {
					a.countPairs(s, p.ch.nx, i, p.walks.fails, nil)
				}
				continue
			}
			end := p.single(i)
			p.record(i)
			var walked map[int][8]uint64 // counting: the pairs that reached the end, by j
			if count {
				walked = make(map[int][8]uint64)
			}
			for j := i + 1; j < end; j++ {
				if !s.livePoint(j) || p.skip[j] == p.stamp {
					continue
				}
				a.pairs++
				fail, reached := p.pair(j)
				if !reached {
					continue
				}
				if count {
					walked[j] = fail
				} else if fail != [8]uint64{} {
					a.d = 2
					break pairs
				}
			}
			if count {
				a.countPairs(s, p.ch.nx, i, p.walks.fails, func(j int) ([8]uint64, bool, bool) {
					fail, ok := walked[j]
					return fail, ok, j < end && s.livePoint(j) && p.skip[j] != p.stamp
				})
			}
		}
		if p.work > budget {
			a.d = min(a.d, 2)
		}
	}
	a.met, a.work = p.met, p.work
	for _, f := range a.malignant {
		a.fails += f
	}
	if a.fails > 0 {
		a.d = min(a.d, 2)
	}
	if a.d == 3 || count {
		a.win = p.win
	}
	return a
}

// countPairs adds the failing cases of the pairs (i, j > i) of one chunk
// of nx inputs. walk reports, for a live i, pair j's failing lanes when
// it was walked to the end, and whether it was walked at all; a pair
// walked but stopped fails where fault i alone does, and a pair not
// walked where fault j alone does, or fault i alone when j is not live.
func (a *pairAudit) countPairs(s *pairStage, nx int, i int, singles []uint64, walk func(j int) (fail [8]uint64, reached, walked bool)) {
	nv := func(op int) int { return 1 << s.ops[op].n }
	lanesOf := func(nv int) uint64 { // compact lanes of values below nv, inputs below nx
		m := uint64(0)
		for v := 0; v < nv; v++ {
			m |= (1<<nx - 1) << (8 * v)
		}
		return m
	}
	single := func(op int) int { return bits.OnesCount64(singles[op] & lanesOf(nv(op))) }
	for j := i + 1; j < len(s.ops); j++ {
		var f int
		switch {
		case !s.livePoint(i) && !s.livePoint(j):
		case !s.livePoint(i):
			f = nv(i) * single(j)
		case !s.livePoint(j):
			f = nv(j) * single(i)
		default:
			fail, reached, walked := walk(j)
			switch {
			case reached:
				m := lanesOf(nv(i))
				for w := 0; w < nv(j); w++ {
					f += bits.OnesCount64(fail[w] & m)
				}
			case walked:
				f = nv(j) * single(i)
			default:
				f = nv(i) * single(j)
			}
		}
		if f > 0 {
			a.malignant[[2]int{i, j}] += f
		}
	}
}
