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
// A batch walks only the lanes that can fail. The lane audit (pairs.go)
// certifies, once per target and input domain, a fault count d below
// which no lane fails. A compacting batch draws only the lanes holding
// at least d live faults, with the program's count-first producer
// (lanes.Tail), and their inputs, queues them and walks the queue
// 64·words lanes at a time; the other lanes succeed. Its estimates have
// the walk-every-lane batch's law, not its bytes. At d = 3 the audit's
// absorption windows also certify the drawn lanes whose faults cannot
// meet: a lane's leading fault is dropped while its next fault lies at
// or past the leading one's window, and a lane left with fewer than d
// faults succeeds unwalked. That changes which lanes are walked, never a
// lane's outcome or a draw.

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

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

// laneCerts is a target's lane state shared by every copy of the
// target: its lane audits, by input domain, computed on the domain's
// first lane estimate; its most recently compiled program; and the fault
// buffers its finished estimates' compacting batches left for the next
// estimate.
type laneCerts struct {
	mu     sync.Mutex
	audits map[Input]pairAudit // nil until the first audit
	prog   laneProgram         // prog.prog is nil until the first lane estimate
	spare  []*laneBuffers
}

// laneProgram is a compiled program of a target with what it was
// compiled for: the fault probability of each gate kind (allKinds order,
// as lanes.ClampProb clamps it) and the block width. The target's circuit
// and decoded wires fix the rest. tail is the program's count-first
// producer for the latest d a compacting batch asked for, built on first
// use, never at compile time.
type laneProgram struct {
	probs []float64
	words int
	prog  *lanes.WideProgram
	tail  *lanes.Tail
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

// tail returns prog's count-first producer for d, kept with the target's
// program when prog is it. A target built without a cache builds one on
// every call.
func (t Target) tail(prog *lanes.WideProgram, d int) *lanes.Tail {
	if t.certs == nil {
		return prog.Tail(d)
	}
	c := t.certs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog.prog != prog {
		return prog.Tail(d)
	}
	if c.prog.tail == nil || c.prog.tail.D() != d {
		c.prog.tail = prog.Tail(d)
	}
	return c.prog.tail
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
// one per estimate.
type laneBuffers struct {
	ev     []lanes.Fault // queued faults, Lane the queue slot, in lane order
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
			if cap(b.ev) == n && len(b.count) == points+1 {
				c.spare = append(c.spare[:i], c.spare[i+1:]...)
				b.ev = b.ev[:0]
				return b
			}
		}
	}
	return &laneBuffers{ev: make([]lanes.Fault, 0, n), sorted: make([]lanes.Fault, n), count: make([]int32, points+1)}
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

// certify returns the target's lane audit for in (pairs.go), auditing
// when the target has not been audited for in before. A target built
// without a cache (a struct literal) audits on every call.
func (t Target) certify(in Input) pairAudit {
	if t.certs == nil {
		return t.auditPairs(in, pairBudget, false)
	}
	t.certs.mu.Lock()
	defer t.certs.mu.Unlock()
	c, ok := t.certs.audits[in]
	if !ok {
		c = t.auditPairs(in, pairBudget, false)
		if t.certs.audits == nil {
			t.certs.audits = make(map[Input]pairAudit)
		}
		t.certs.audits[in] = c
	}
	return c
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

// batch takes the target's program for a words-wide lane block (compiled
// once per model and width, see program) and returns the factory of its
// per-worker lane batches, and the function that hands their fault
// buffers back to the target once the estimate is over. Each
// worker's batch owns its lane state and buffers, so a steady-state batch
// allocates nothing. The batch compacts when the audit certifies d ≥ 1 and the program's
// expected share of lanes holding d live faults is below compactBelow;
// the target is not audited when even d = 3 would not compact. At d = 3
// it also drops the drawn lanes the audit's absorption windows certify.
//
// Every fault drawn is added to the context registry's "lanes.faults"
// counter, every walked lane slot to "lanes.walked" and every drawn lane
// the windows certify to "lanes.absorbed". A batch that
// walks every lane draws faults for every lane slot of a block, the
// excess slots of a partial final block included, so its per-trial fault
// rate must be normalized by "lanes.slots", never by "lanes.trials". A
// compacting batch draws only the live faults of the lanes holding at
// least d of them, so there the counter is E[K | K ≥ d] per drawn lane,
// not a fault rate of the slots; the drawn lanes are the walked ones and
// the absorbed ones.
func (t Target) batch(ctx context.Context, in Input, m noise.Model, words int) (newBatch func() sim.WideBatch, done func()) {
	prog := t.program(m, words)
	var cert pairAudit
	if prog.WalkedFraction(3) < compactBelow {
		if cert = t.certify(in); prog.WalkedFraction(cert.d) >= compactBelow {
			cert = pairAudit{}
		}
	}
	var tail *lanes.Tail
	if cert.d > 0 {
		tail = t.tail(prog, cert.d)
	}
	reg := telemetry.Active(ctx)
	faults, walked, absorbed := reg.Counter("lanes.faults"), reg.Counter("lanes.walked"), reg.Counter("lanes.absorbed")
	var mu sync.Mutex
	var used []*laneBuffers
	newBatch = func() sim.WideBatch {
		b := &laneBatch{prog: prog, tail: tail, win: cert.win, in: in, chk: t.newLaneCheck(words), hit: make([]uint64, words),
			faults: faults, walked: walked, absorbed: absorbed, first: -1}
		if tail != nil {
			b.laneBuffers = t.certs.buffers(4*prog.Lanes()+prog.Points(), prog.Points())
			mu.Lock()
			used = append(used, b.laneBuffers)
			mu.Unlock()
		}
		return b
	}
	return newBatch, func() { t.certs.release(used) }
}

// laneBatch is one worker's lane batch of a target. Without a tail
// producer it walks every lane of every batch: draw or broadcast the
// logical inputs lane-wise, encode, run the compiled program, evaluate
// the logical circuit on the input words in place, and set each lane's
// hit bit when any decoded output differs. With one it draws the lanes
// holding at least d live faults, with their inputs and faults, drops
// the leading faults the windows (if any) certify, queues the lanes left
// with at least d faults, and walks the queue when it holds 64·K lanes or
// its fault buffer could not take the next lane's faults, and on Flush.
type laneBatch struct {
	prog                     *lanes.WideProgram
	tail                     *lanes.Tail // nil: walk every lane
	win                      *windows    // with a tail at d = 3: the absorption windows, or nil
	in                       Input
	chk                      *laneCheck // with a tail, chk.vals holds the queued lanes' operands
	hit                      []uint64
	faults, walked, absorbed *telemetry.Counter

	*laneBuffers          // with a tail: the fault buffers
	keys         []uint64 // with windows: the drawn lane's fault keys, point<<3 | bits

	n       int                          // queued lanes
	first   int                          // the lowest block with a queued lane, -1 when none is
	nWalked int64                        // lane slots walked since the last Flush
	skipped [sim.BlockTrials / 64]uint64 // queue slots holding skipped lanes (skippedHook)
}

// skippedHook, set only by tests, makes compacting batches also draw
// every lane the producer skips, from the law of its live-fault count
// given fewer than d, on a generator of their own, and walk it with the
// queued lanes, and walk every drawn lane the windows certify with all
// its faults: the certificate says none of them fails. Their hits go to
// the hook, not to the estimate, which is the estimate without the hook.
// The skipped lanes are never window-filtered.
var skippedHook *skippedLanes

// skippedLanes counts the lanes skippedHook made batches draw, their
// faults, the drawn lanes the windows certified, and the lanes of either
// kind that failed.
type skippedLanes struct{ lanes, faults, absorbed, hits atomic.Int64 }

func (b *laneBatch) Pending() int { return b.first }

func (b *laneBatch) Block(r *rng.RNG, block, n int) (hits, batches int) {
	unit := b.prog.Lanes()
	batches = (n + unit - 1) / unit
	if b.tail != nil {
		return b.enqueue(r, block, n), batches
	}
	for ran := 0; ran < n; ran += unit {
		hits += b.walkAll(r, min(unit, n-ran))
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

// enqueue draws the lanes among the block's first n that hold at least d
// live faults, with the tail producer, and queues each with its faults
// and input unless the windows certify it, walking the queue whenever it
// fills; it returns the hits of those walks.
func (b *laneBatch) enqueue(r *rng.RNG, block, n int) (hits int) {
	h := skippedHook
	var hr rng.RNG
	if h != nil {
		hr.Seed(rng.SplitMix(0x5c1bbed, uint64(block)))
	}
	drawn, absorbed, next := 0, 0, int64(0) // next: the first lane not drawn yet
	for lane := b.tail.Gap(r); lane < int64(n); lane += 1 + b.tail.Gap(r) {
		if h != nil {
			hits += b.skip(h, &hr, block, lane-next)
		}
		k := b.tail.Count(r)
		q, kept := b.queue(r, block, k, b.win)
		hits += q
		if !kept {
			absorbed++
		}
		drawn += k
		next = lane + 1
	}
	if h != nil {
		hits += b.skip(h, &hr, block, int64(n)-next)
	}
	if drawn > 0 {
		b.faults.Add(int64(drawn))
	}
	if absorbed > 0 {
		b.absorbed.Add(int64(absorbed))
	}
	return hits
}

// queue draws one lane holding k live faults, its faults and input from
// r, after walking the queue if it is full or its fault buffer could not
// take k more, and returns the hits of that walk. With windows it sorts
// the lane's faults by point and drops the leading ones they certify
// (windows.meet): a lane left with fewer than d faults is not queued
// (kept false) and its input bits are not written. skippedHook walks such
// a lane anyway, with all its faults, as a skipped lane.
func (b *laneBatch) queue(r *rng.RNG, block, k int, win *windows) (hits int, kept bool) {
	if b.n == b.prog.Lanes() || len(b.ev)+k > cap(b.ev) {
		hits = b.Flush()
	}
	s, from := b.n, len(b.ev)
	b.ev = b.tail.Faults(r, k, uint16(s), b.ev)
	var x uint64 // the lane's first input word, drawn as the write below would
	if !b.in.fixed && len(b.chk.vals) > 0 {
		x = r.Uint64()
	}
	kept = true
	if win != nil {
		keys := b.keys[:0]
		for _, f := range b.ev[from:] {
			keys = append(keys, uint64(f.Point)<<3|uint64(f.Bits))
		}
		b.keys = keys
		d := b.tail.D()
		if drop := win.meet(keys, x, d); k-drop < d {
			kept = false
			if skippedHook == nil {
				b.ev = b.ev[:from]
				return hits, false
			}
			b.skipped[s>>6] |= 1 << uint(s&63)
			skippedHook.absorbed.Add(1)
		} else if drop > 0 {
			b.ev = b.ev[:from]
			for _, key := range keys[drop:] {
				b.ev = append(b.ev, lanes.Fault{Point: int32(key >> 3), Lane: uint16(s), Bits: uint8(key & 7)})
			}
		}
	}
	b.n++
	if !b.in.fixed {
		for i, v := range b.chk.vals {
			if i&63 == 0 && i > 0 {
				x = r.Uint64()
			}
			v[s>>6] |= (x >> uint(i&63) & 1) << uint(s&63)
		}
	}
	if b.first < 0 {
		b.first = block
	}
	return hits, kept
}

// meet sorts the keys of one lane's faults, point<<3 | bits (at least
// d ≥ 2 of them, on distinct points), and returns how many leading ones
// the windows certify for the lane's drawn input word x: while at least d
// are left and the next fault lies at or past the leading one's window,
// the leading one is dropped, since the lane then fails exactly as the
// lane without it.
func (w *windows) meet(keys []uint64, x uint64, d int) int {
	sortKeys(keys)
	in := x & (1<<w.shift - 1)
	i := 0
	for len(keys)-i >= d && keys[i+1]>>3 >= uint64(w.at[keys[i]<<w.shift|in]) {
		i++
	}
	return i
}

// sortKeys sorts a lane's few fault keys: by min/max networks, which
// compile without branches, for three or four, by insertion otherwise.
func sortKeys(k []uint64) {
	switch len(k) {
	case 3:
		a, b, c := k[0], k[1], k[2]
		a, b = min(a, b), max(a, b)
		b, c = min(b, c), max(b, c)
		a, b = min(a, b), max(a, b)
		k[0], k[1], k[2] = a, b, c
	case 4:
		a, b, c, d := k[0], k[1], k[2], k[3]
		a, b = min(a, b), max(a, b)
		c, d = min(c, d), max(c, d)
		a, c = min(a, c), max(a, c)
		b, d = min(b, d), max(b, d)
		b, c = min(b, c), max(b, c)
		k[0], k[1], k[2], k[3] = a, b, c, d
	default:
		for i := 1; i < len(k); i++ {
			v, j := k[i], i
			for ; j > 0 && k[j-1] > v; j-- {
				k[j] = k[j-1]
			}
			k[j] = v
		}
	}
}

// skip queues m lanes the producer skipped, for skippedHook, each with a
// live-fault count below d drawn from hr, never window-filtered.
func (b *laneBatch) skip(h *skippedLanes, hr *rng.RNG, block int, m int64) (hits int) {
	for ; m > 0; m-- {
		k := b.tail.Head(hr)
		q, _ := b.queue(hr, block, k, nil)
		hits += q
		b.skipped[(b.n-1)>>6] |= 1 << uint((b.n-1)&63)
		h.lanes.Add(1)
		h.faults.Add(int64(k))
	}
	return hits
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

// walkQueue walks the queued lanes, their faults counting-sorted into
// point order, empties the queue and returns their hits.
func (b *laneBatch) walkQueue() int {
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
	c, nw := b.chk, (b.n+63)/64
	if b.in.fixed {
		c.broadcast(b.in.in)
	}
	c.encode()
	b.prog.RunPlan(c.st, b.sorted[:len(b.ev)])
	b.nWalked += int64(b.prog.Lanes())
	hit := b.hit[:nw]
	c.wrong(hit)
	sim.MaskLanes(hit, b.n)
	if skippedHook != nil {
		for k, w := range hit {
			skippedHook.hits.Add(int64(bits.OnesCount64(w & b.skipped[k])))
			hit[k] &^= b.skipped[k]
		}
		clear(b.skipped[:])
	}
	for i := range c.vals {
		clear(c.vals[i])
	}
	b.n, b.ev, b.first = 0, b.ev[:0], -1
	return popcount(hit)
}
