package lanes_test

import (
	"fmt"
	"testing"

	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
)

// BenchmarkBatch times one 512-lane batch of each layer of the engine on
// the level-2 gadget's program at the threshold sweep's ρ/10 and ρ/2:
// Draw (the geometric fault schedule alone), Tail (the count-first
// producer's draw of the batch's lanes holding ≥ 3 live faults, the
// compacted batches' draw), Run (schedule and walk), RunPlan (the walk of
// Draw's live faults) and RunNoiseless (the walk with no fault). ns/op
// is per batch; faults/batch is the fault count Draw, Tail and Run
// return and the plan length RunPlan walks. Run it with
// `go test ./internal/lanes -run '^$' -bench Batch -cpu 1`.
func BenchmarkBatch(b *testing.B) {
	g := core.NewGadget(gate.MAJ, 2)
	for _, p := range []float64{0.000606, 0.00303} {
		prog := g.CompileWide(noise.Uniform(p), 8)
		st := lanes.NewWideState(g.Circuit.Width(), 8)
		const nplans = 64
		plans := make([][]lanes.Fault, nplans)
		r := rng.New(1)
		for i := range plans {
			plans[i], _ = prog.Draw(r, nil)
		}
		b.Run(fmt.Sprintf("g=%g/Draw", p), func(b *testing.B) {
			r, live, n := rng.New(2), []lanes.Fault(nil), 0
			for i := 0; i < b.N; i++ {
				var f int
				live, f = prog.Draw(r, live[:0])
				n += f
			}
			b.ReportMetric(float64(n)/float64(b.N), "faults/batch")
		})
		b.Run(fmt.Sprintf("g=%g/Tail", p), func(b *testing.B) {
			tl := prog.Tail(3)
			r, buf, n := rng.New(2), []lanes.Fault(nil), 0
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for lane := tl.Gap(r); lane < int64(prog.Lanes()); lane += 1 + tl.Gap(r) {
					buf = tl.Faults(r, tl.Count(r), uint16(lane), buf)
				}
				n += len(buf)
			}
			b.ReportMetric(float64(n)/float64(b.N), "faults/batch")
		})
		b.Run(fmt.Sprintf("g=%g/Run", p), func(b *testing.B) {
			r, n := rng.New(2), 0
			for i := 0; i < b.N; i++ {
				n += prog.Run(st, r)
			}
			b.ReportMetric(float64(n)/float64(b.N), "faults/batch")
		})
		b.Run(fmt.Sprintf("g=%g/RunPlan", p), func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				plan := plans[i%nplans]
				prog.RunPlan(st, plan)
				n += len(plan)
			}
			b.ReportMetric(float64(n)/float64(b.N), "faults/batch")
		})
		b.Run(fmt.Sprintf("g=%g/RunNoiseless", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog.RunNoiseless(st)
			}
			b.ReportMetric(0, "faults/batch")
		})
	}
}
