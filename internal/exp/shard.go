package exp

// Sweep drivers for the job server: the per-point estimators of the
// checkpointable sweep experiments, exposed over global point indices as
// one sweep.PointFunc per job. Every estimate's randomness depends only on
// (params seed, swept value, trial index), never on how many workers run
// the point or which grid holds it, so a job resumed from its checkpoint
// or a subset grid served from the result cache reproduces the CLI's
// estimates bit for bit.

import (
	"fmt"
	"strings"

	"revft/internal/sweep"
)

// sweepExperiments is the list of checkpointable sweep experiments
// ShardableSweep serves; SweepExperiments and every CLI's list of them
// derive from it.
var sweepExperiments = []string{"recovery", "levels", "local", "adder"}

// SweepExperiments returns the sweep experiment names in list order.
func SweepExperiments() []string { return append([]string(nil), sweepExperiments...) }

// MaxLevel is the deepest concatenation level a levels sweep accepts. A
// sweep that runs points at level L builds the level-L gadget, which has
// 27^L ops, so level 3 (19,683 ops) is the last cheap one.
const MaxLevel = 3

// ShardableSweep returns the named sweep experiment's global point
// function and total point count. gs is the swept gate-error grid;
// maxLevel and bits parameterize the levels and adder experiments and are
// ignored by the others. The point function is exactly the one the Ctx
// table drivers run, so a job server running it reproduces the CLI's
// numbers bit for bit. No circuit is built here: the point
// function builds each target on the first call that needs it, once,
// whichever of its concurrent callers gets there first, so a sweep whose
// points all come from a checkpoint or the cache builds no circuit.
func ShardableSweep(experiment string, gs []float64, maxLevel, bits int, p MCParams) (sweep.PointFunc, int, error) {
	if len(gs) == 0 {
		return nil, 0, fmt.Errorf("exp: shardable sweep %q: empty grid", experiment)
	}
	switch experiment {
	case "recovery":
		fn, _ := recoveryPointFunc(gs, p)
		return fn, len(gs), nil
	case "levels":
		if maxLevel < 0 || maxLevel > MaxLevel {
			return nil, 0, fmt.Errorf("exp: shardable sweep levels: maxlevel %d out of range 0..%d", maxLevel, MaxLevel)
		}
		fn, _ := levelsPointFunc(gs, maxLevel, p)
		return fn, (maxLevel + 1) * len(gs), nil
	case "local":
		fn, _ := localPointFunc(gs, p)
		return fn, len(gs), nil
	case "adder":
		if bits < 1 || 2*bits+2 > 64 {
			return nil, 0, fmt.Errorf("exp: shardable sweep adder: bits %d out of range 1..31", bits)
		}
		fn, _ := adderPointFunc(bits, gs, p)
		return fn, len(gs), nil
	}
	return nil, 0, fmt.Errorf("exp: %q is not a shardable sweep experiment (want %s)", experiment, strings.Join(sweepExperiments, ", "))
}
