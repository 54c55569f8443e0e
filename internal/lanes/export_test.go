package lanes

import (
	"slices"

	"revft/internal/rng"
)

// Draw draws a batch's fault schedule with exactly Run's randomness and
// returns it without walking: it appends the faults on live points to
// live, in point order, and returns the extended slice with the count of
// every fault, as Run would. Walking the appended faults with RunPlan
// leaves the wires the program was compiled for as Run leaves them. The
// tests use it to hand RunPlan the geometric producer's faults.
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

// TailPMF returns the producer's law of a lane's live-fault count and its
// tail sums P(K ≥ k).
func TailPMF(t *Tail) (pmf, tail []float64) { return t.pmf, t.tail }
