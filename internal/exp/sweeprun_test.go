package exp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// cancelAfter is an io.Writer that cancels a context after n progress
// lines, simulating a SIGINT landing between sweep points.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	if c.n--; c.n <= 0 {
		c.cancel()
	}
	return len(p), nil
}

// TestRecoveryInterruptResumeIdentical is the acceptance criterion: a
// sweep killed mid-run and resumed from its checkpoint produces a final
// table identical to the uninterrupted run for the same (seed, engine) —
// here with the uninterrupted, interrupted and resumed runs each at its
// own worker count.
func TestRecoveryInterruptResumeIdentical(t *testing.T) {
	gs := []float64{1e-3, 3e-3, 1e-2}
	p := MCParams{Trials: 20000, Workers: 2, Seed: 11}
	ck := filepath.Join(t.TempDir(), "ck.json")

	full, err := RecoveryCtx(context.Background(), gs, MCParams{Trials: 20000, Workers: 4, Seed: 11}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the first completed point.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := RecoveryCtx(ctx, gs, p, SweepOptions{
		Checkpoint: ck,
		Progress:   &cancelAfter{n: 1, cancel: cancel},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if !strings.Contains(partial.Title, "[PARTIAL]") {
		t.Errorf("interrupted table not marked partial: %q", partial.Title)
	}
	if len(partial.Rows) >= len(gs) {
		t.Fatalf("interrupted run rendered %d rows, want fewer than %d", len(partial.Rows), len(gs))
	}

	p.Workers = 1
	resumed, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Format(), full.Format(); got != want {
		t.Errorf("resumed table differs from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}
}

// TestResumeRejectsChangedSpec: resuming under a different trial budget
// must refuse the checkpoint rather than silently mix estimates.
func TestResumeRejectsChangedSpec(t *testing.T) {
	gs := []float64{1e-2}
	p := MCParams{Trials: 2000, Workers: 2, Seed: 3}
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	p.Trials = 4000
	_, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("resume with changed trials: err = %v, want digest mismatch", err)
	}
}

// TestRelTolAgreesWithFixed: an adaptive sweep must report rates
// statistically compatible with the fixed-budget sweep — overlapping 95%
// Wilson intervals at every point — while running fewer trials at points
// where the estimate tightens early.
func TestRelTolAgreesWithFixed(t *testing.T) {
	gs := []float64{5e-3, 2e-2}
	p := MCParams{Trials: 150000, Workers: 2, Seed: 5}

	o := SweepOptions{RelTol: 0.1, MinTrials: 2000}
	adaptive, err := RecoveryCtx(context.Background(), gs, p, o)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Rows) != len(fixed.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(adaptive.Rows), len(fixed.Rows))
	}
	// The CI column renders "[lo, hi]"; compare interval overlap per row.
	for i := range fixed.Rows {
		aLo, aHi := parseCI(t, adaptive.Rows[i][2])
		fLo, fHi := parseCI(t, fixed.Rows[i][2])
		if aLo > fHi || fLo > aHi {
			t.Errorf("g=%s: adaptive CI %s and fixed CI %s are disjoint",
				fixed.Rows[i][0], adaptive.Rows[i][2], fixed.Rows[i][2])
		}
	}
	// At least one note must record the early-stopping trial counts.
	found := false
	for _, n := range adaptive.Notes {
		if strings.Contains(n, "adaptive early stopping") {
			found = true
		}
	}
	if !found {
		t.Error("adaptive table missing the early-stopping note")
	}
}

func parseCI(t *testing.T, s string) (lo, hi float64) {
	t.Helper()
	if n, err := fmt.Sscanf(s, "[%g, %g]", &lo, &hi); n != 2 || err != nil {
		t.Fatalf("cannot parse CI cell %q: %v", s, err)
	}
	return lo, hi
}

// TestLevelsAdderLocalCtxComplete: the remaining sweep drivers run under
// the resilient runtime with checkpoints and complete.
func TestLevelsAdderLocalCtxComplete(t *testing.T) {
	gs := []float64{2e-3}
	p := MCParams{Trials: 3000, Workers: 2, Seed: 8}
	dir := t.TempDir()

	lv, err := LevelsCtx(context.Background(), gs, 1, p, SweepOptions{Checkpoint: filepath.Join(dir, "lv.json")})
	if err != nil {
		t.Fatal(err)
	}
	if len(lv.Rows) == 0 {
		t.Error("LevelsCtx rendered no rows")
	}

	lc, err := LocalCtx(context.Background(), gs, p, SweepOptions{Checkpoint: filepath.Join(dir, "lc.json")})
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.Rows) == 0 {
		t.Error("LocalCtx rendered no rows")
	}

	ad, err := AdderModuleCtx(context.Background(), 2, gs, p, SweepOptions{Checkpoint: filepath.Join(dir, "ad.json")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Rows) == 0 {
		t.Error("AdderModuleCtx rendered no rows")
	}

	// Each checkpoint must be loadable and complete.
	for _, name := range []string{"lv.json", "lc.json", "ad.json"} {
		ckpt, err := sweep.Load(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(ckpt.Done) == 0 {
			t.Errorf("%s: empty checkpoint", name)
		}
	}
}

// TestLanesEngineResumeIdentical: the bit-identity contract holds on the
// lanes engine too.
func TestLanesEngineResumeIdentical(t *testing.T) {
	gs := []float64{1e-3, 1e-2}
	p := MCParams{Trials: 30000, Workers: 2, Seed: 13, Engine: EngineLanes}
	ck := filepath.Join(t.TempDir(), "ck.json")

	full, err := LocalCtx(context.Background(), gs, p, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := LocalCtx(ctx, gs, p, SweepOptions{
		Checkpoint: ck,
		Progress:   &cancelAfter{n: 1, cancel: cancel},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted lanes run: err = %v", err)
	}
	resumed, err := LocalCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Format() != full.Format() {
		t.Error("resumed lanes table differs from uninterrupted run")
	}
}

// TestLanesResumeCheckpointWithVecs: a lanes checkpoint whose metrics
// carry the per-location "vecs" object older writers emitted resumes to
// the uninterrupted table byte for byte, and its counters carry over:
// the resumed checkpoint's fault and trial counts equal the
// uninterrupted run's, which are fixed by the seed.
func TestLanesResumeCheckpointWithVecs(t *testing.T) {
	gs := []float64{1e-3, 1e-2}
	p := MCParams{Trials: 30000, Workers: 2, Seed: 13, Engine: EngineLanes}
	dir := t.TempDir()
	fullCk, ck := filepath.Join(dir, "full.json"), filepath.Join(dir, "ck.json")

	full, err := LocalCtx(context.Background(), gs, p, SweepOptions{Checkpoint: fullCk, Metrics: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := LocalCtx(ctx, gs, p, SweepOptions{
		Checkpoint: ck, Metrics: telemetry.New(),
		Progress: &cancelAfter{n: 1, cancel: cancel},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted lanes run: err = %v", err)
	}
	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	vecs := `"metrics": {"vecs": {"lanes.tally.cycle2d": {"labels": ["000:MAJ(0,1,2)"], "counts": [41]}},`
	b = bytes.Replace(b, []byte(`"metrics": {`), []byte(vecs), 1)
	if !bytes.Contains(b, []byte(`"vecs"`)) {
		t.Fatal("test premise broken: interrupted checkpoint has no metrics")
	}
	if err := os.WriteFile(ck, b, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := LocalCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck, Resume: true, Metrics: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Format() != full.Format() {
		t.Errorf("resumed table differs from uninterrupted run:\n%s\nvs\n%s", resumed.Format(), full.Format())
	}
	want, err := sweep.Load(fullCk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Load(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lanes.faults", telemetry.TrialsMetric} {
		if g, w := got.Metrics.Counters[name], want.Metrics.Counters[name]; g != w || w == 0 {
			t.Errorf("resumed %s = %d, uninterrupted %d", name, g, w)
		}
	}
}

// TestRecoveryTelemetryAgreesWithTable runs a real sweep with the full
// observability stack attached and checks the three-way agreement the
// trace exists to provide: the JSONL per-point trial counts, the
// registry's counters, and the sweep outcome all report the same numbers.
func TestRecoveryTelemetryAgreesWithTable(t *testing.T) {
	reg := telemetry.New()
	man := telemetry.Collect("exp-test")
	var buf bytes.Buffer
	tr, err := telemetry.NewTrace(&buf, man)
	if err != nil {
		t.Fatal(err)
	}
	gs := []float64{1e-3, 1e-2}
	p := MCParams{Trials: 2000, Workers: 2, Seed: 11, Engine: EngineLanes}
	o := SweepOptions{Metrics: reg, Trace: tr, Manifest: man}
	if _, err := RecoveryCtx(context.Background(), gs, p, o); err != nil {
		t.Fatal(err)
	}

	// Registry: every point ran its full fixed budget on the lanes engine.
	snap := reg.Snapshot()
	wantTrials := int64(len(gs) * p.Trials)
	if got := snap.Counters[telemetry.TrialsMetric]; got != wantTrials {
		t.Errorf("sim.trials = %d, want %d", got, wantTrials)
	}
	if got := snap.Counters["lanes.trials"]; got != wantTrials {
		t.Errorf("lanes.trials = %d, want %d", got, wantTrials)
	}
	if snap.Counters["lanes.faults"] == 0 {
		t.Error("lanes.faults = 0 after a noisy sweep")
	}
	if snap.Gauges["exp.recovery.G_analytic"] != 11 {
		t.Errorf("exp.recovery.G_analytic = %v, want 11 (paper's G)", snap.Gauges["exp.recovery.G_analytic"])
	}
	// Trace: point_done trials match the fixed budget per point.
	sc := bufio.NewScanner(&buf)
	points := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v", err)
		}
		if ev["type"] != "point_done" {
			continue
		}
		points++
		for _, tv := range ev["trials"].([]any) {
			if int(tv.(float64)) != p.Trials {
				t.Errorf("trace point %v trials = %v, want %d", ev["point"], tv, p.Trials)
			}
		}
	}
	if points != len(gs) {
		t.Errorf("trace has %d point_done events, want %d", points, len(gs))
	}
	if man.SpecDigest == "" {
		t.Error("manifest was not stamped with the spec digest")
	}
}

// TestLocalTelemetryLabelsCycles: the local sweep counts lane-engine
// faults and sets a separate G_analytic gauge for each cycle family.
func TestLocalTelemetryLabelsCycles(t *testing.T) {
	reg := telemetry.New()
	p := MCParams{Trials: 1500, Workers: 1, Seed: 3, Engine: EngineLanes}
	if _, err := LocalCtx(context.Background(), []float64{2e-2}, p, SweepOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["lanes.faults"] == 0 {
		t.Error("lanes.faults = 0 after a noisy local sweep")
	}
	for _, name := range []string{"exp.local.cycle2d.G_analytic", "exp.local.cycle1d.G_analytic"} {
		if snap.Gauges[name] == 0 {
			t.Errorf("gauge %s not set", name)
		}
	}
}

// TestAdaptiveEqualsFixed: a point that stops early at n trials holds
// exactly the counts of a fixed n-trial run of its point function —
// adaptive chunks only run more blocks of the same estimate — on the
// scalar and the widest lane engine.
func TestAdaptiveEqualsFixed(t *testing.T) {
	gs := []float64{2e-2, 5e-2}
	for _, engine := range []string{EngineScalar, EngineLanes512} {
		p := MCParams{Trials: 1 << 20, Workers: 3, Seed: 21, Engine: engine}
		ck := filepath.Join(t.TempDir(), "ck.json")
		if _, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck, RelTol: 0.1}); err != nil {
			t.Fatal(err)
		}
		c, err := sweep.Load(ck)
		if err != nil {
			t.Fatal(err)
		}
		fn, _, err := ShardableSweep("recovery", gs, 0, 0, MCParams{Trials: p.Trials, Workers: 1, Seed: p.Seed, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range c.Done {
			n := pr.Ests[0].Trials
			if !pr.Stopped || n >= p.Trials {
				t.Fatalf("%s point %d: stopped=%v at %d trials, want an early stop", engine, pr.Index, pr.Stopped, n)
			}
			fixed, err := fn(context.Background(), pr.Index, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if fixed[0] != pr.Ests[0] {
				t.Errorf("%s point %d: adaptive %v, fixed %d-trial run %v", engine, pr.Index, pr.Ests[0], n, fixed[0])
			}
		}
	}
}
