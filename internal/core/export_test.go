package core

import (
	"revft/internal/lanes"
	"revft/internal/noise"
)

// LaneAudit runs the lane audit of t for in with the given budget and
// returns its d, and the failing single faults on live points the
// counting audit walked, in (input, op, value) order.
func LaneAudit(t Target, in Input, budget int) (int, []FaultCase) {
	a := t.auditPairs(in, 1<<40, true)
	n := t.Circuit.Len()
	var fails []FaultCase
	for k := 0; k < len(a.singles)/n; k++ {
		nx := min(chunkInputs, 1<<len(t.In)-chunkInputs*k)
		if in.fixed {
			nx = 1
		}
		for c := 0; c < nx; c++ {
			x := in.in
			if !in.fixed {
				x = uint64(chunkInputs*k + c)
			}
			for op, f := range a.singles[k*n : (k+1)*n] {
				for v := range 1 << t.Circuit.Op(op).Kind.Arity() {
					if f>>(8*v+c)&1 != 0 {
						fails = append(fails, FaultCase{Input: x, OpIndex: op, Value: uint64(v)})
					}
				}
			}
		}
	}
	return t.auditPairs(in, budget, false).d, fails
}

// SetCompactBelow sets the walked-fraction crossover below which lane
// batches compact and returns the old value: 2 forces compaction
// wherever the audit allows it, -1 walks every lane.
func SetCompactBelow(f float64) float64 {
	old := compactBelow
	compactBelow = f
	return old
}

// SkippedLanes counts what SetSkippedHook made batches draw.
type SkippedLanes = skippedLanes

// Skipped returns the skipped lanes drawn, their live faults and the
// skipped lanes that failed.
func (h *SkippedLanes) Skipped() (lanes, faults, hits int64) {
	return h.lanes.Load(), h.faults.Load(), h.hits.Load()
}

// Absorbed returns the drawn lanes the absorption windows certified,
// which the hook walked with all their faults.
func (h *SkippedLanes) Absorbed() int64 { return h.absorbed.Load() }

// SetSkippedHook makes compacting batches also draw every lane their
// producer skips and walk it beside the queued ones, counting in h (nil
// turns it off), and returns the old hook.
func SetSkippedHook(h *SkippedLanes) *SkippedLanes {
	old := skippedHook
	skippedHook = h
	return old
}

// SpareLaneBuffers is how many compacting batches' fault buffers t keeps
// for its next estimates.
func SpareLaneBuffers(t Target) int {
	t.certs.mu.Lock()
	defer t.certs.mu.Unlock()
	return len(t.certs.spare)
}

// CachedProgram is the compiled program t keeps for its next estimates,
// nil before its first lane estimate.
func CachedProgram(t Target) *lanes.WideProgram {
	t.certs.mu.Lock()
	defer t.certs.mu.Unlock()
	return t.certs.prog.prog
}

// LaneProgram is the program t's lane estimates under m at words run.
func LaneProgram(t Target, m noise.Model, words int) *lanes.WideProgram {
	return t.program(m, words)
}

// PairAudit runs t's lane audit for in with the given budget, certifying
// or counting (see auditPairs); clean is a certificate of d = 3.
func PairAudit(t Target, in Input, budget int, count bool) (clean bool, fails int, malignant map[[2]int]int, pairs, met, work int) {
	a := t.auditPairs(in, budget, count)
	return a.d == 3, a.fails, a.malignant, a.pairs, a.met, a.work
}

// PairBudget is the lane audit's budget.
const PairBudget = pairBudget

// PairLive reports, by op, whether the pair stage counts a fault on it as
// live.
func PairLive(t Target) []bool {
	s := newPairStage(t)
	live := make([]bool, len(s.ops))
	for i := range live {
		live[i] = s.livePoint(i)
	}
	return live
}

// PairFailures is forEachPair's count of failing cases by op pair (i, j),
// the pairs with none left out.
func PairFailures(t Target) map[[2]int]int {
	out := make(map[[2]int]int)
	i, j, n := 0, 1, t.Circuit.Len()
	t.forEachPair(func(fails int, _ uint64) {
		if fails > 0 {
			out[[2]int{i, j}] = fails
		}
		if j++; j == n {
			i++
			j = i + 1
		}
	})
	return out
}

// Certify is the d the lane audit certifies for t on in, with the given
// budget.
func Certify(t Target, in Input, budget int) int {
	return t.auditPairs(in, budget, false).d
}

// Windows runs t's lane audit for in, counting over every chunk, and
// returns its absorption windows: the window of a fault on pt with
// replacement bits b (as FaultBits writes them) on the input of index x
// in the domain. ok is false when the audit kept none.
func Windows(t Target, in Input) (window func(pt int, b uint8, x uint64) int, ok bool) {
	w := t.auditPairs(in, 1<<40, true).win
	if w == nil {
		return nil, false
	}
	return func(pt int, b uint8, x uint64) int { return int(w.at[(pt<<3|int(b))<<w.shift|int(x)]) }, true
}
