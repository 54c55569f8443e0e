package server

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"revft/internal/exp"
	"revft/internal/sweep"
)

// TestSubmitBoundsRejected: a spec whose grid, level count or trial total
// exceeds its bound is refused as invalid_spec before a job exists, so no
// job directory is created.
func TestSubmitBoundsRejected(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Drivers["levels"] = func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
			return exp.ShardableSweep("levels", grid, spec.MaxLevel, spec.Bits, exp.MCParams{Trials: spec.Trials, Seed: spec.Seed})
		}
	})
	points := testSpec()
	points.Points = MaxPoints + 1
	levels := testSpec()
	levels.Experiment, levels.MaxLevel = "levels", exp.MaxLevel+1
	trials := testSpec()
	trials.Trials = int(math.MaxInt64/int64(trials.Points)) + 1
	for name, spec := range map[string]JobSpec{"points": points, "maxlevel": levels, "trials": trials} {
		_, err := s.Submit(spec)
		rejectCode(t, err, CodeInvalidSpec, 400)
		t.Logf("%s: %v", name, err)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("refused specs admitted %d jobs", len(jobs))
	}
	dirs, err := os.ReadDir(filepath.Join(s.cfg.DataDir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 0 {
		t.Errorf("refused specs left %d job directories", len(dirs))
	}
}
