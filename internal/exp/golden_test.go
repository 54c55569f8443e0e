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
// estimator produces at one small fixed (seed, trials). The sweep point
// functions, the server and the benchmark all run these estimators, so a
// refactor of the encode→run→decode path or of the seeding that changes
// any count here changes the bytes a sweep, a checkpoint or a cache entry
// holds. Every pin must hold at each of goldenWorkers: the worker count
// decides only the speed. The trial count is not a multiple of the
// 512-trial block (nor of 64), so every engine ends in a partial block
// and every lane engine in a masked partial batch.
const (
	goldenTrials = 2000
	goldenSeed   = 11
	goldenG      = 1e-2
)

var goldenWorkers = []int{1, 2, 4, 8}

// TestGoldenSweepEstimates pins every point of the sweep point functions
// on every engine over a two-value grid: recovery is the level-1 gadget,
// levels runs levels 0, 1 and 2 (point = level·2 + grid index), local
// holds cycle2d then cycle1d, adder the bare then the level-1
// fault-tolerant 4-bit adder.
func TestGoldenSweepEstimates(t *testing.T) {
	grid := []float64{goldenG, 0.1}
	want := map[string]string{
		"recovery/scalar":   "[[3] [231]]",
		"recovery/lanes":    "[[2] [227]]",
		"recovery/lanes256": "[[1] [202]]",
		"recovery/lanes512": "[[2] [221]]",
		"levels/scalar":     "[[19] [154] [4] [202] [0] [212]]",
		"levels/lanes":      "[[23] [186] [2] [222] [0] [221]]",
		"levels/lanes256":   "[[25] [185] [3] [229] [0] [233]]",
		"levels/lanes512":   "[[20] [181] [0] [223] [0] [220]]",
		"local/scalar":      "[[8 73] [448 1282]]",
		"local/lanes":       "[[5 65] [459 1276]]",
		"local/lanes256":    "[[6 83] [452 1283]]",
		"local/lanes512":    "[[8 88] [453 1277]]",
		"adder/scalar":      "[[248 90] [1499 1894]]",
		"adder/lanes":       "[[286 83] [1499 1895]]",
		"adder/lanes256":    "[[254 81] [1500 1914]]",
		"adder/lanes512":    "[[260 90] [1509 1882]]",
	}
	for _, workers := range goldenWorkers {
		for _, engine := range EngineNames() {
			checkGoldenSweeps(t, grid, workers, engine, want)
		}
	}
}

// checkGoldenSweeps runs every sweep point function on one engine at one
// worker count and compares its success counts with want.
func checkGoldenSweeps(t *testing.T, grid []float64, workers int, engine string, want map[string]string) {
	t.Helper()
	p := MCParams{Trials: goldenTrials, Workers: workers, Seed: goldenSeed, Engine: engine}
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
			t.Errorf("%s at workers=%d: successes %v, want %s", key, workers, got, want[key])
		}
	}
}

// TestGoldenProcessEstimates pins the two scalar-only run steps: the
// burst-noise fault process on the level-1 gadget and the scheduled
// idle-noise execution of both local cycles (read back from the idle
// table's rate cells, which are successes/goldenTrials).
func TestGoldenProcessEstimates(t *testing.T) {
	for _, workers := range goldenWorkers {
		b := noise.Burst{Gate: goldenG, Init: goldenG, Corr: 0.5}
		burst, err := core.NewGadget(gate.MAJ, 1).Estimate(context.Background(), core.Uniform, core.Process(b), 0, 0, goldenTrials, workers, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		if burst.Trials != goldenTrials || burst.Successes != 72 {
			t.Errorf("burst at workers=%d: %d/%d, want %d/%d", workers, burst.Successes, burst.Trials, 72, goldenTrials)
		}

		tab := mustTable(t)(IdleNoise(context.Background(), goldenG, []float64{0, 0.5}, MCParams{Trials: goldenTrials, Workers: workers, Seed: goldenSeed}))
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
		if want := [][2]int{{9, 71}, {14, 140}}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("idle (2D, 1D) successes at workers=%d: %v, want %v", workers, got, want)
		}
	}
}

// TestGoldenMemoryEstimates pins the memory table on the scalar and the
// lanes512 engine: Memory.Target under uniform stored values, read back
// from the table's measured-error cells (successes/goldenTrials) for 5
// and 50 recovery cycles.
func TestGoldenMemoryEstimates(t *testing.T) {
	want := map[string][2]int{
		EngineScalar:   {4, 29},
		EngineLanes512: {3, 41},
	}
	for _, workers := range goldenWorkers {
		for engine, w := range want {
			p := MCParams{Trials: goldenTrials, Workers: workers, Seed: goldenSeed, Engine: engine}
			tab := mustTable(t)(MemoryExperiment(context.Background(), goldenG, []int{5, 50}, p))
			var got [2]int
			for i, row := range tab.Rows {
				rate, err := strconv.ParseFloat(row[1], 64)
				if err != nil {
					t.Fatalf("memory cell %q: %v", row[1], err)
				}
				got[i] = int(math.Round(rate * goldenTrials))
			}
			if got != w {
				t.Errorf("memory on %s at workers=%d: successes %v, want %v", engine, workers, got, w)
			}
		}
	}
}
