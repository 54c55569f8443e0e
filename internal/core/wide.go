package core

// The lane engine's side of Target: the same extended rectangle on
// 64·words bit-sliced trials per batch through the word-program
// compiler (lanes.CompileWideFor); words = 1 is the 64-lane engine. Inputs
// are drawn per lane word, the ideal outputs are computed bit-sliced
// (one word kernel per logical op) and the outputs are decoded by
// word-parallel recursive majority. Estimates are statistically
// equivalent to the scalar trial (same noise channel, same seeded trial
// blocks) but not bit-identical to it, nor across batch widths, since
// each consumes a block's randomness in its own order.
//
// A batch walks only the lanes that can fail. The lane audit certifies,
// once per target and input domain, a fault count d below which no lane
// fails: d = 2 when no single fault on a live point fails on any input
// of the domain, and d = 3 when moreover no pair of such faults fails
// (the pair stage, pairs.go); d = 1 when only the noiseless run is right
// on every input, d = 0 otherwise. A batch draws its inputs and its whole
// fault schedule as a walk-every-lane batch would, queues the lanes
// holding at least d live faults and walks the queue 64·words lanes at a
// time; the other lanes succeed. A lane's outcome depends only on its own input and
// faults, so every count is the walk-every-lane count.

import (
	"context"
	"math/bits"
	"sync"

	"revft/internal/circuit"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/telemetry"
)

// compactBelow is the expected share of walked lanes (WalkedFraction)
// below which a batch compacts; above it, walking every lane is faster
// (DESIGN.md, the lane engine). Tests set it to force either path.
var compactBelow = 0.375

// auditBudget bounds the plans a lane audit walks: the noiseless run of
// every input of the domain for d = 1, then every single fault on a live
// point on every input for d = 2. Past it the audit settles for the lower
// d. The level-2 gadget's audit walks 37,440 plans.
const auditBudget = 1 << 18

// laneCerts is a target's lane state shared by every copy of the
// target: its lane audits, by input domain, computed on the domain's
// first lane estimate; its most recently compiled program; and the fault
// buffers its finished estimates' compacting batches left for the next
// estimate.
type laneCerts struct {
	mu    sync.Mutex
	d     map[Input]int // nil until the first audit
	prog  laneProgram   // prog.prog is nil until the first lane estimate
	spare []*laneBuffers
}

// laneProgram is a compiled program of a target with what it was
// compiled for: the fault probability of each gate kind (allKinds order,
// as lanes.ClampProb clamps it) and the block width. The target's circuit
// and decoded wires fix the rest.
type laneProgram struct {
	probs []float64
	words int
	prog  *lanes.WideProgram
}

// allKinds is gate.Kinds(), the order of a laneProgram's probabilities.
var allKinds = gate.Kinds()

// program returns the target's program for m at words. A target keeps
// the program of its latest model and width, which an adaptive sweep's
// chunk estimates of one point all run; another model or width compiles
// a program that replaces it. A target built without a cache (a struct
// literal) compiles on every call.
func (t Target) program(m noise.Model, words int) *lanes.WideProgram {
	if t.certs == nil {
		return t.CompileWide(m, words)
	}
	c := t.certs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog.prog != nil && c.prog.matches(m, words) {
		return c.prog.prog
	}
	lp := laneProgram{probs: make([]float64, len(allKinds)), words: words, prog: t.CompileWide(m, words)}
	for i, k := range allKinds {
		lp.probs[i] = lanes.ClampProb(m.FaultProb(k))
	}
	c.prog = lp
	return lp.prog
}

// matches reports whether lp was compiled for m at words.
func (lp laneProgram) matches(m noise.Model, words int) bool {
	if lp.words != words {
		return false
	}
	for i, k := range allKinds {
		if lp.probs[i] != lanes.ClampProb(m.FaultProb(k)) {
			return false
		}
	}
	return true
}

// laneBuffers is a compacting batch's fault buffers, sized for n queued
// faults on a program of points fault points. They hold nothing from one
// batch to the next, so the chunk estimates of an adaptive sweep on one
// target reuse one set per worker instead of allocating and collecting
// one per estimate (67 KB for the level-2 gadget at 512 lanes).
type laneBuffers struct {
	live   []lanes.Fault // the batch's faults on live points
	buf    []lanes.Fault // ev's backing array, one spare slot past its capacity
	sorted []lanes.Fault // ev in point order
	count  []int32       // by point: the counting sort's offsets
}

// buffers returns spare buffers for n queued faults on points fault
// points, or new ones when the target has none (or no cache).
func (c *laneCerts) buffers(n, points int) *laneBuffers {
	if c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, b := range c.spare {
			if len(b.buf) == n+1 && len(b.count) == points+1 {
				c.spare = append(c.spare[:i], c.spare[i+1:]...)
				return b
			}
		}
	}
	return &laneBuffers{live: make([]lanes.Fault, 0, n), buf: make([]lanes.Fault, n+1),
		sorted: make([]lanes.Fault, n), count: make([]int32, points+1)}
}

// release keeps bs for the target's next estimates.
func (c *laneCerts) release(bs []*laneBuffers) {
	if c == nil || len(bs) == 0 {
		return
	}
	c.mu.Lock()
	c.spare = append(c.spare, bs...)
	c.mu.Unlock()
}

// certify returns the target's audited d for in, auditing on prog when
// the target has not been audited for in before. A target built without
// a cache (a struct literal) audits on every call.
func (t Target) certify(prog *lanes.WideProgram, in Input) int {
	if t.certs == nil {
		return t.audit(prog, in, pairBudget)
	}
	t.certs.mu.Lock()
	defer t.certs.mu.Unlock()
	d, ok := t.certs.d[in]
	if !ok {
		d = t.audit(prog, in, pairBudget)
		if t.certs.d == nil {
			t.certs.d = make(map[Input]int)
		}
		t.certs.d[in] = d
	}
	return d
}

// audit runs the lane audit for in on prog: the single-fault stage and,
// when it certifies d = 2, the pair stage within pairs units of work.
func (t Target) audit(prog *lanes.WideProgram, in Input, pairs int) int {
	d := t.auditLanes(prog, in, auditBudget).d
	if d == 2 && t.auditPairs(in, pairs, false).clean {
		d = 3
	}
	return d
}

// CompileWide compiles the target's circuit under m for words-wide lane
// batches, for the Out wires it decodes: ops no decoded wire depends on
// are not run.
func (t Target) CompileWide(m noise.Model, words int) *lanes.WideProgram {
	var outs []int
	for _, wires := range t.Out {
		outs = append(outs, wires...)
	}
	return lanes.CompileWideFor(t.Circuit, m, words, outs)
}

// laneCheck is the encode and compare half of a lane batch: the lane
// state and the logical operand words, lane 64k+j in bit j of word k.
type laneCheck struct {
	t       Target
	logical []circuit.Op
	st      lanes.WideState
	vals    [][]uint64
	dec     []uint64
}

func (t Target) newLaneCheck(words int) *laneCheck {
	c := &laneCheck{t: t, logical: t.Logical.Ops(), st: lanes.NewWideState(t.Circuit.Width(), words),
		vals: make([][]uint64, len(t.In)), dec: make([]uint64, words)}
	for i := range c.vals {
		c.vals[i] = make([]uint64, words)
	}
	return c
}

// broadcast sets every lane's operands to the packed input in.
func (c *laneCheck) broadcast(in uint64) {
	for i := range c.vals {
		w := lanes.Broadcast(in>>uint(i)&1 == 1)
		for k := range c.vals[i] {
			c.vals[i][k] = w
		}
	}
}

// encode clears the state and writes the operand words onto the In
// codewords.
func (c *laneCheck) encode() {
	c.st.Reset()
	for i, wires := range c.t.In {
		c.st.EncodeBlock(wires, c.vals[i])
	}
}

// wrong evaluates the logical circuit on the first len(hit) operand words
// in place and sets each lane's hit bit when a decoded output differs.
func (c *laneCheck) wrong(hit []uint64) {
	nw := len(hit)
	var ops [3][]uint64
	for _, op := range c.logical {
		for j, w := range op.Targets {
			ops[j] = c.vals[w][:nw]
		}
		lanes.EvalWide(op.Kind, ops[:len(op.Targets)])
	}
	clear(hit)
	dec := c.dec[:nw]
	for i, wires := range c.t.Out {
		c.st.DecodeBlock(wires, dec)
		for k := range hit {
			hit[k] |= dec[k] ^ c.vals[i][k]
		}
	}
}

// InjectedWide is Injected on the lane engine, for prog compiled by
// t.CompileWide. The returned function encodes lane j's packed logical
// input in[j] (len(in) ≤ prog.Lanes()), walks prog with exactly the
// faults of plan (lanes.WideProgram.RunPlan: in point order, a fault on
// source op i at point i, its Bits from prog.FaultBits), decodes, and
// returns the failure mask: bit j of word j/64 is set when lane j's
// output differs from the logical circuit's. Lanes past len(in) are
// clear. The mask is overwritten by the next call; the function allocates
// nothing and is not safe for concurrent use.
func (t Target) InjectedWide(prog *lanes.WideProgram) func(in []uint64, plan []lanes.Fault) []uint64 {
	c := t.newLaneCheck(prog.Words())
	fail := make([]uint64, prog.Words())
	return func(in []uint64, plan []lanes.Fault) []uint64 {
		for i := range c.vals {
			clear(c.vals[i])
			for j, x := range in {
				c.vals[i][j>>6] |= (x >> uint(i) & 1) << uint(j&63)
			}
		}
		c.encode()
		prog.RunPlan(c.st, plan)
		c.wrong(fail)
		sim.MaskLanes(fail, len(in))
		return fail
	}
}

// laneAudit is a target's single-fault audit on the lane engine for one
// input domain.
type laneAudit struct {
	// d is the certified fault count: a lane with fewer than d faults on
	// live points cannot fail.
	d int
	// fails lists the single faults on live points that fail, in
	// (op, value, input) order, when the noiseless run is right on the
	// whole domain and the budget reached them.
	fails []FaultCase
}

// auditLanes audits the target on prog for the inputs of in — every
// input under Uniform, one under Fixed — walking at most budget plans:
// first each input noiselessly, then every single fault on every live
// point, every value of it and every input, 64·K plans per walk, against
// Injected's semantics (a fault on a point that is not live cannot reach
// a decoded output).
func (t Target) auditLanes(prog *lanes.WideProgram, in Input, budget int) laneAudit {
	nin := uint64(1)
	if !in.fixed {
		nin <<= uint(len(t.In))
	}
	input := func(x uint64) uint64 {
		if in.fixed {
			return in.in
		}
		return x
	}
	if nin > uint64(budget) {
		return laneAudit{}
	}
	run := t.InjectedWide(prog)
	ins := make([]uint64, 0, prog.Lanes())
	for x := uint64(0); x < nin; x++ {
		ins = append(ins, input(x))
		if len(ins) == cap(ins) || x == nin-1 {
			for _, w := range run(ins, nil) {
				if w != 0 {
					return laneAudit{}
				}
			}
			ins = ins[:0]
		}
	}
	plans := uint64(0)
	for pt := 0; pt < prog.Points(); pt++ {
		if prog.Live(pt) {
			plans += nin << uint(t.Circuit.Op(pt).Kind.Arity())
		}
	}
	if plans > uint64(budget) {
		return laneAudit{d: 1}
	}
	a := laneAudit{d: 2}
	plan := make([]lanes.Fault, 0, prog.Lanes())
	cases := make([]FaultCase, 0, prog.Lanes())
	flush := func() {
		for k, w := range run(ins, plan) {
			for ; w != 0; w &= w - 1 {
				a.fails = append(a.fails, cases[64*k+bits.TrailingZeros64(w)])
				a.d = 1
			}
		}
		ins, plan, cases = ins[:0], plan[:0], cases[:0]
	}
	for pt := 0; pt < prog.Points(); pt++ {
		if !prog.Live(pt) {
			continue
		}
		for v := uint64(0); v < 1<<uint(t.Circuit.Op(pt).Kind.Arity()); v++ {
			b := prog.FaultBits(pt, v)
			for x := uint64(0); x < nin; x++ {
				plan = append(plan, lanes.Fault{Point: int32(pt), Lane: uint16(len(ins)), Bits: b})
				ins = append(ins, input(x))
				cases = append(cases, FaultCase{Input: input(x), OpIndex: pt, Value: v})
				if len(ins) == cap(ins) {
					flush()
				}
			}
		}
	}
	if len(ins) > 0 {
		flush()
	}
	return a
}

// batch takes the target's program for a words-wide lane block (compiled
// once per model and width, see program) and returns the factory of its
// per-worker lane batches, and the function that hands their fault
// buffers back to the target once the estimate is over. Each
// worker's batch owns its lane state and buffers, so a steady-state batch
// allocates nothing. The batch compacts when the audit certifies d ≥ 1 and the program's
// expected share of lanes holding d live faults is below compactBelow;
// the target is not audited when even d = 3 would not compact.
//
// Every fault event is added to the context registry's "lanes.faults"
// counter and every walked lane slot to "lanes.walked". The fault count
// is per lane SLOT, not per counted trial: the engine draws faults for
// every lane of a block, so faults in the excess slots of a partial final
// block (which are never counted) are counted too. Per-trial fault rates
// must therefore be normalized by "lanes.slots", never by "lanes.trials";
// the two differ whenever trials is not a multiple of the block's lane
// count.
func (t Target) batch(ctx context.Context, in Input, m noise.Model, words int) (newBatch func() sim.WideBatch, done func()) {
	prog := t.program(m, words)
	d := 0
	if prog.WalkedFraction(3) < compactBelow {
		if d = t.certify(prog, in); prog.WalkedFraction(d) >= compactBelow {
			d = 0
		}
	}
	reg := telemetry.Active(ctx)
	faults, walked := reg.Counter("lanes.faults"), reg.Counter("lanes.walked")
	var mu sync.Mutex
	var used []*laneBuffers
	newBatch = func() sim.WideBatch {
		b := &laneBatch{prog: prog, in: in, d: d, chk: t.newLaneCheck(words), hit: make([]uint64, words),
			faults: faults, walked: walked, first: -1}
		if d > 0 {
			if !in.fixed {
				b.draws = make([][]uint64, len(t.In))
				for i := range b.draws {
					b.draws[i] = make([]uint64, words)
				}
			}
			for i := range b.slot {
				b.slot[i] = noSlot
			}
			b.laneBuffers = t.certs.buffers(4*prog.Lanes()+prog.Points(), prog.Points())
			b.ev = b.buf[:0]
			mu.Lock()
			used = append(used, b.laneBuffers)
			mu.Unlock()
		}
		return b
	}
	return newBatch, func() { t.certs.release(used) }
}

// laneBatch is one worker's lane batch of a target. With d = 0 it walks
// every lane of every batch: draw or broadcast the logical inputs
// lane-wise, encode, run the compiled program, evaluate the logical
// circuit on the input words in place, and set each lane's hit bit when
// any decoded output differs. With d ≥ 1 it queues the lanes holding at
// least d faults on live points, with their inputs and those faults, and
// walks the queue when it holds 64·K lanes or its fault buffer is full,
// and on Flush.
type laneBatch struct {
	prog           *lanes.WideProgram
	in             Input
	d              int
	chk            *laneCheck // with d ≥ 1, chk.vals holds the queued lanes' operands
	hit            []uint64
	faults, walked *telemetry.Counter

	*laneBuffers // with d ≥ 1: the fault buffers

	draws  [][]uint64                   // the batch's drawn operand words
	cnt    [sim.BlockTrials]uint32      // by batch lane: its live faults
	slot   [sim.BlockTrials]uint16      // by batch lane: its queue slot, noSlot if not queued
	queued [sim.BlockTrials / 64]uint64 // the batch's queued lanes

	n, reserved int           // queued lanes; their faults, appended to ev or not
	ev          []lanes.Fault // queued faults, Lane the queue slot; sorted runs
	unsorted    bool          // ev is out of point order
	first       int           // the lowest block with a queued lane, -1 when none is
	nWalked     int64         // lane slots walked since the last Flush
}

// laneMask bounds a batch's lane indices: the harness runs at most
// BlockTrials lanes per batch.
const laneMask = sim.BlockTrials - 1

const noSlot = 0xffff

func (b *laneBatch) Pending() int { return b.first }

func (b *laneBatch) Block(r *rng.RNG, block, n int) (hits, batches int) {
	unit := b.prog.Lanes()
	for ran := 0; ran < n; ran += unit {
		if b.d == 0 {
			hits += b.walkAll(r, min(unit, n-ran))
		} else {
			hits += b.enqueue(r, block, min(unit, n-ran))
		}
		batches++
	}
	return hits, batches
}

// walkAll runs one batch on every lane and counts the hits of its first
// n lanes.
func (b *laneBatch) walkAll(r *rng.RNG, n int) int {
	c := b.chk
	if b.in.fixed {
		c.broadcast(b.in.in)
	} else {
		for i := range c.vals {
			for k := range c.vals[i] {
				c.vals[i][k] = r.Uint64()
			}
		}
	}
	c.encode()
	if f := b.prog.Run(c.st, r); f > 0 {
		b.faults.Add(int64(f))
	}
	b.nWalked += int64(b.prog.Lanes())
	c.wrong(b.hit)
	sim.MaskLanes(b.hit, n)
	return popcount(b.hit)
}

func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// enqueue draws one batch with walkAll's randomness and queues its first
// n lanes that hold at least d live faults, walking the queue whenever it
// fills; it returns the hits of those walks.
func (b *laneBatch) enqueue(r *rng.RNG, block, n int) (hits int) {
	if !b.in.fixed {
		for i := range b.draws {
			for k := range b.draws[i] {
				b.draws[i][k] = r.Uint64()
			}
		}
	}
	live, f := b.prog.Draw(r, b.live[:0])
	b.live = live
	if f > 0 {
		b.faults.Add(int64(f))
	}
	d := uint32(b.d)
	for _, e := range live {
		l := e.Lane & laneMask
		c := b.cnt[l] + 1
		b.cnt[l] = c
		// Branch-free: set lane l's bit when its count reaches d.
		b.queued[l>>6] |= uint64((c^d)-1) >> 31 & 1 << (l & 63)
	}
	queued := b.queued[:b.prog.Words()]
	sim.MaskLanes(queued, n)
	lo := 0 // the batch's lanes below lo are in ev
	for k, w := range queued {
		for ; w != 0; w &= w - 1 {
			lane := 64*k + bits.TrailingZeros64(w)
			if b.n == b.prog.Lanes() || b.reserved+int(b.cnt[lane]) >= len(b.buf) {
				b.append(lo, lane)
				hits += b.Flush()
				lo = lane
			}
			s := b.n
			b.slot[lane], b.n, b.reserved = uint16(s), s+1, b.reserved+int(b.cnt[lane])
			for i, dw := range b.draws {
				b.chk.vals[i][s>>6] |= (dw[k] >> uint(lane&63) & 1) << uint(s&63)
			}
			if b.first < 0 {
				b.first = block
			}
		}
	}
	b.append(lo, b.prog.Lanes())
	for _, e := range live {
		b.cnt[e.Lane&laneMask] = 0
	}
	for k, w := range queued {
		for ; w != 0; w &= w - 1 {
			b.slot[64*k+bits.TrailingZeros64(w)] = noSlot
		}
		queued[k] = 0
	}
	return hits
}

// append adds the live faults of the batch's queued lanes in [lo, hi) to
// ev, each on its lane's queue slot.
func (b *laneBatch) append(lo, hi int) {
	ev, from := b.ev, len(b.ev)
	if lo == 0 && hi == b.prog.Lanes() {
		// Branch-free: write every fault past the end and keep those of
		// queued lanes, the last write landing at most on the spare slot.
		buf, n := b.buf, from
		for _, e := range b.live {
			s := b.slot[e.Lane&laneMask]
			buf[n] = lanes.Fault{Point: e.Point, Lane: s, Bits: e.Bits}
			n += int((uint32(s) - noSlot) >> 31)
		}
		ev = buf[:n]
	} else {
		for _, e := range b.live {
			l := e.Lane & laneMask
			if s := b.slot[l]; s != noSlot && int(l) >= lo && int(l) < hi {
				ev = append(ev, lanes.Fault{Point: e.Point, Lane: s, Bits: e.Bits})
			}
		}
	}
	if from > 0 && len(ev) > from && ev[from].Point < ev[from-1].Point {
		b.unsorted = true
	}
	b.ev = ev
}

// Flush walks the queued lanes, adds the lane slots walked since the
// last Flush to lanes.walked (one atomic add per queue walk, not per
// batch) and returns the queued lanes' hits.
func (b *laneBatch) Flush() (hits int) {
	if b.n > 0 {
		hits = b.walkQueue()
	}
	b.walked.Add(b.nWalked)
	b.nWalked = 0
	return hits
}

// walkQueue walks the queued lanes, empties the queue and returns their
// hits.
func (b *laneBatch) walkQueue() int {
	plan := b.ev
	if b.unsorted {
		cnt := b.count
		clear(cnt)
		for _, e := range b.ev {
			cnt[e.Point+1]++
		}
		for i := 1; i < len(cnt); i++ {
			cnt[i] += cnt[i-1]
		}
		for _, e := range b.ev {
			b.sorted[cnt[e.Point]] = e
			cnt[e.Point]++
		}
		plan = b.sorted[:len(b.ev)]
	}
	c, nw := b.chk, (b.n+63)/64
	if b.in.fixed {
		c.broadcast(b.in.in)
	}
	c.encode()
	b.prog.RunPlan(c.st, plan)
	b.nWalked += int64(b.prog.Lanes())
	hit := b.hit[:nw]
	c.wrong(hit)
	sim.MaskLanes(hit, b.n)
	for i := range c.vals {
		clear(c.vals[i])
	}
	b.n, b.reserved, b.ev, b.unsorted, b.first = 0, 0, b.ev[:0], false, -1
	return popcount(hit)
}
