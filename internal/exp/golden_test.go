package exp

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"

	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/noise"
)

// Golden estimator pins: the exact success counts every Monte Carlo
// estimator produces at one small fixed (seed, trials, workers). The
// sweep point functions, the server and the benchmark all run these
// estimators, so a refactor of the encode→run→decode path that changes
// any count here changes the bytes a sweep, a checkpoint or a cache entry
// holds. The trial count is not a multiple of 64 so every lane engine
// ends in a masked partial batch.
const (
	goldenTrials  = 2000
	goldenWorkers = 2
	goldenSeed    = 11
	goldenG       = 1e-2
)

// TestGoldenSweepEstimates pins every point of the sweep point functions
// on every engine over a two-value grid: recovery is the level-1 gadget,
// levels runs levels 0, 1 and 2 (point = level·2 + grid index), local
// holds cycle2d then cycle1d, adder the bare then the level-1
// fault-tolerant 4-bit adder.
func TestGoldenSweepEstimates(t *testing.T) {
	grid := []float64{goldenG, 0.1}
	want := map[string]string{
		"recovery/scalar":   "[[5] [229]]",
		"recovery/lanes":    "[[2] [208]]",
		"recovery/lanes256": "[[5] [212]]",
		"recovery/lanes512": "[[2] [228]]",
		"levels/scalar":     "[[18] [185] [2] [213] [0] [223]]",
		"levels/lanes":      "[[7] [186] [6] [196] [0] [236]]",
		"levels/lanes256":   "[[16] [182] [3] [201] [0] [231]]",
		"levels/lanes512":   "[[15] [175] [1] [212] [0] [225]]",
		"local/scalar":      "[[7 82] [462 1281]]",
		"local/lanes":       "[[3 84] [454 1266]]",
		"local/lanes256":    "[[12 71] [439 1294]]",
		"local/lanes512":    "[[10 82] [458 1266]]",
		"adder/scalar":      "[[232 86] [1549 1895]]",
		"adder/lanes":       "[[249 90] [1534 1887]]",
		"adder/lanes256":    "[[252 82] [1526 1903]]",
		"adder/lanes512":    "[[244 93] [1505 1883]]",
	}
	for _, engine := range EngineNames() {
		p := MCParams{Trials: goldenTrials, Workers: goldenWorkers, Seed: goldenSeed, Engine: engine}
		for _, name := range []string{"recovery", "levels", "local", "adder"} {
			key := name + "/" + engine
			fn, points, err := ShardableSweep(name, grid, 2, 4, p)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]int
			for pt := 0; pt < points; pt++ {
				ests, err := fn(context.Background(), pt, 0, goldenTrials)
				if err != nil {
					t.Fatalf("%s point %d: %v", key, pt, err)
				}
				var s []int
				for i, e := range ests {
					if e.Trials != goldenTrials {
						t.Fatalf("%s point %d: estimate %d ran %d trials, want %d", key, pt, i, e.Trials, goldenTrials)
					}
					s = append(s, e.Successes)
				}
				got = append(got, s)
			}
			if fmt.Sprint(got) != want[key] {
				t.Errorf("%s: successes %v, want %s", key, got, want[key])
			}
		}
	}
}

// TestGoldenProcessEstimates pins the two scalar-only run steps: the
// burst-noise fault process on the level-1 gadget and the scheduled
// idle-noise execution of both local cycles (read back from the idle
// table's rate cells, which are successes/goldenTrials).
func TestGoldenProcessEstimates(t *testing.T) {
	b := noise.Burst{Gate: goldenG, Init: goldenG, Corr: 0.5}
	burst := core.NewGadget(gate.MAJ, 1).LogicalErrorRateProcess(b, goldenTrials, goldenWorkers, goldenSeed)
	if burst.Trials != goldenTrials || burst.Successes != 60 {
		t.Errorf("burst: %d/%d, want %d/%d", burst.Successes, burst.Trials, 60, goldenTrials)
	}

	tab := IdleNoise(goldenG, []float64{0, 0.5}, MCParams{Trials: goldenTrials, Workers: goldenWorkers, Seed: goldenSeed})
	var got [][2]int
	for _, row := range tab.Rows {
		var s [2]int
		for j, cell := range row[1:3] {
			rate, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("idle cell %q: %v", cell, err)
			}
			s[j] = int(math.Round(rate * goldenTrials))
		}
		got = append(got, s)
	}
	if want := [][2]int{{8, 77}, {16, 173}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("idle (2D, 1D) successes %v, want %v", got, want)
	}
}
