package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// fakePoint is a deterministic PointFunc: estimates derived purely from
// (spec seed, pt, start, trials) through the real block harness, so
// interrupted and uninterrupted sweeps are comparable bit-for-bit,
// exactly like the real Monte Carlo engines under a fixed seed.
func fakePoint(seed uint64) PointFunc {
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := sim.MonteCarloCtx(ctx, start, trials, 1, seed+uint64(pt), func(r *rng.RNG) bool { return r.Bool(0.1) })
		return []stats.Bernoulli{res.Bernoulli}, err
	}
}

func testSpec(points int) Spec {
	return Spec{
		Experiment: "fake",
		Grid:       []float64{1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2}[:points],
		Points:     points,
		Trials:     5000,
		Workers:    2,
		Seed:       42,
		Engine:     "scalar",
	}
}

func TestRunCompleteWritesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	r := &Runner{Spec: testSpec(3), Point: fakePoint(42), CheckpointPath: ck}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || len(out.Done) != 3 {
		t.Fatalf("outcome = %+v, want 3 complete points", out)
	}
	loaded, err := Load(ck)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest != r.Spec.Digest() {
		t.Error("checkpoint digest does not match spec")
	}
	if len(loaded.Done) != 3 {
		t.Errorf("checkpoint holds %d points, want 3", len(loaded.Done))
	}
	// Atomic write: no temp files left behind.
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(leftovers) != 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

// TestInterruptResumeBitIdentical is the core resilience contract: cancel
// a sweep mid-run, resume it from the checkpoint, and the pooled results
// must equal an uninterrupted sweep exactly.
func TestInterruptResumeBitIdentical(t *testing.T) {
	spec := testSpec(5)
	ck := filepath.Join(t.TempDir(), "ck.json")

	// Uninterrupted reference.
	ref, err := (&Runner{Spec: spec, Point: fakePoint(42)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel while point 2 (index 2) is executing.
	ctx, cancel := context.WithCancel(context.Background())
	point := fakePoint(42)
	interrupting := func(c context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		if pt == 2 {
			cancel()
		}
		if err := c.Err(); err != nil {
			return nil, err
		}
		return point(c, pt, start, trials)
	}
	out, err := (&Runner{Spec: spec, Point: interrupting, CheckpointPath: ck}).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if out.Complete || len(out.Done) != 2 {
		t.Fatalf("interrupted run completed %d points, want 2", len(out.Done))
	}

	// Resume and compare.
	res, err := (&Runner{Spec: spec, Point: fakePoint(42), CheckpointPath: ck, Resume: true}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Resumed != 2 {
		t.Fatalf("resumed run: complete=%v resumed=%d, want true/2", res.Complete, res.Resumed)
	}
	if !reflect.DeepEqual(res.Done, ref.Done) {
		t.Errorf("resumed results differ from uninterrupted run:\nresumed: %+v\nref:     %+v", res.Done, ref.Done)
	}
}

func TestResumeRejectsDigestMismatch(t *testing.T) {
	spec := testSpec(3)
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := (&Runner{Spec: spec, Point: fakePoint(42), CheckpointPath: ck}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	changed := spec
	changed.Seed = 43
	_, err := (&Runner{Spec: changed, Point: fakePoint(43), CheckpointPath: ck, Resume: true}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("resume with changed seed: err = %v, want digest mismatch", err)
	}
}

func TestLoadRejectsCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted corrupt JSON")
	}

	// A well-formed checkpoint whose recorded digest was tampered with.
	spec := testSpec(2)
	good := &Checkpoint{Digest: spec.Digest(), Spec: spec}
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	tampered := strings.Replace(string(b), spec.Digest()[:8], "deadbeef", 1)
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("Load on tampered digest: err = %v, want inconsistency error", err)
	}
}

func TestResumeWithoutPathFails(t *testing.T) {
	r := &Runner{Spec: testSpec(2), Point: fakePoint(42), Resume: true}
	if _, err := r.Run(context.Background()); err == nil {
		t.Error("Resume without CheckpointPath did not fail")
	}
}

// TestDigestCoversEveryKnob: every field that decides a sweep's bytes
// moves the digest; the worker count, which does not, leaves it alone.
func TestDigestCoversEveryKnob(t *testing.T) {
	base := testSpec(3)
	w := testSpec(3)
	w.Workers++
	if w.Digest() != base.Digest() {
		t.Error("changing workers changed the digest")
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.Experiment = "other" },
		func(s *Spec) { s.Grid[0] *= 2 },
		func(s *Spec) { s.Points++ },
		func(s *Spec) { s.Trials++ },
		func(s *Spec) { s.Seed++ },
		func(s *Spec) { s.Engine = "lanes" },
		func(s *Spec) { s.Extra = "maxlevel=2" },
		func(s *Spec) { s.Stop.RelTol = 0.1 },
	}
	for i, mut := range mutations {
		s := base
		s.Grid = append([]float64(nil), base.Grid...)
		mut(&s)
		if s.Digest() == base.Digest() {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
}

// TestAdaptiveEarlyStop: a high-rate point under a loose tolerance stops
// before the ceiling; its pooled estimate satisfies the rule.
func TestAdaptiveEarlyStop(t *testing.T) {
	spec := testSpec(1)
	spec.Trials = 1 << 20
	spec.Stop = StopRule{RelTol: 0.2, MinTrials: 500}
	out, err := (&Runner{Spec: spec, Point: fakePoint(42)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := out.Done[0]
	if !p.Stopped {
		t.Fatalf("point did not early-stop: %+v", p)
	}
	if p.Ests[0].Trials >= spec.Trials {
		t.Errorf("early stop used the full ceiling (%d trials)", p.Ests[0].Trials)
	}
	if !spec.Stop.Converged(p.Ests) {
		t.Errorf("stopped point does not satisfy the rule: %v", p.Ests[0])
	}
}

// TestAdaptiveZeroRateRunsToCeiling: an estimate that never succeeds
// cannot satisfy a relative tolerance, so it burns the whole ceiling.
func TestAdaptiveZeroRateRunsToCeiling(t *testing.T) {
	spec := testSpec(1)
	spec.Trials = 4000
	spec.Stop = StopRule{RelTol: 0.2, MinTrials: 500}
	zero := func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		return []stats.Bernoulli{{Trials: trials}}, nil
	}
	out, err := (&Runner{Spec: spec, Point: zero}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := out.Done[0]
	if p.Stopped || p.Ests[0].Trials != 4000 {
		t.Errorf("zero-rate point: stopped=%v trials=%d, want false/4000", p.Stopped, p.Ests[0].Trials)
	}
}

// TestAdaptiveMatchesFixedWhenDisabled: StopRule zero value leaves the
// fixed-trials path untouched, one call from trial 0.
func TestAdaptiveMatchesFixedWhenDisabled(t *testing.T) {
	spec := testSpec(2)
	var starts []int
	spy := func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		starts = append(starts, start)
		if trials != spec.Trials {
			t.Errorf("fixed mode ran %d trials, want %d", trials, spec.Trials)
		}
		return fakePoint(42)(ctx, pt, start, trials)
	}
	if _, err := (&Runner{Spec: spec, Point: spy}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(starts) != spec.Points {
		t.Errorf("fixed mode made %d calls for %d points, want one each", len(starts), spec.Points)
	}
	for _, s := range starts {
		if s != 0 {
			t.Errorf("fixed mode started at trial %d, want 0 only", s)
		}
	}
}

// TestAdaptiveChunksAreWholeBlocks: adaptive chunks start at the running
// trial count on block boundaries — the floor rounds up to whole blocks,
// then doubles — so a point that stopped at n trials holds exactly the
// counts of a fixed n-trial call.
func TestAdaptiveChunksAreWholeBlocks(t *testing.T) {
	spec := testSpec(1)
	spec.Trials = 1 << 20
	spec.Stop = StopRule{RelTol: 0.05, MinTrials: 700}
	var starts, sizes []int
	spy := func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		starts, sizes = append(starts, start), append(sizes, trials)
		return fakePoint(42)(ctx, pt, start, trials)
	}
	out, err := (&Runner{Spec: spec, Point: spy}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := out.Done[0]
	if !p.Stopped || len(starts) < 2 {
		t.Fatalf("point did not stop early after several chunks: %+v, %d chunks", p, len(starts))
	}
	ran := 0
	for i := range starts {
		if want := 2 * sim.BlockTrials << i; starts[i] != ran || sizes[i] != want {
			t.Errorf("chunk %d: trials [%d, +%d), want [%d, +%d)", i, starts[i], sizes[i], ran, want)
		}
		ran += sizes[i]
	}
	fixed, err := fakePoint(42)(context.Background(), 0, 0, p.Ests[0].Trials)
	if err != nil {
		t.Fatal(err)
	}
	if fixed[0] != p.Ests[0] {
		t.Errorf("adaptive point %v differs from the fixed run of its length %v", p.Ests[0], fixed[0])
	}
}

// TestPartialPointExcludedFromCheckpoint: an interrupted point's partial
// estimate is shown in the outcome but never persisted.
func TestPartialPointExcludedFromCheckpoint(t *testing.T) {
	spec := testSpec(3)
	ck := filepath.Join(t.TempDir(), "ck.json")
	ctx, cancel := context.WithCancel(context.Background())
	point := func(c context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		if pt == 1 {
			cancel()
			// Simulate an engine returning a partial estimate with the
			// cancellation error.
			return []stats.Bernoulli{{Trials: 10, Successes: 1}}, c.Err()
		}
		return fakePoint(42)(c, pt, start, trials)
	}
	out, err := (&Runner{Spec: spec, Point: point, CheckpointPath: ck}).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(out.Done) != 2 || !out.Done[1].Partial {
		t.Fatalf("outcome should end with the partial point: %+v", out.Done)
	}
	loaded, err := Load(ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Done) != 1 || loaded.Done[0].Index != 0 {
		t.Errorf("checkpoint should hold only completed point 0: %+v", loaded.Done)
	}
}

// TestLoadRejectsTruncatedCheckpoint simulates the classic torn write: a
// checkpoint cut off mid-JSON must produce a clean "corrupt checkpoint"
// error naming the file, never a panic or a half-parsed resume.
func TestLoadRejectsTruncatedCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	spec := testSpec(3)
	if _, err := (&Runner{Spec: spec, Point: fakePoint(42), CheckpointPath: path}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		if err := os.WriteFile(path, b[:int(float64(len(b))*frac)], 0o644); err != nil {
			t.Fatal(err)
		}
		_, lerr := Load(path)
		if lerr == nil || !strings.Contains(lerr.Error(), "corrupt checkpoint") {
			t.Errorf("truncated to %.0f%%: err = %v, want corrupt-checkpoint error", 100*frac, lerr)
		}
		if !strings.Contains(lerr.Error(), path) {
			t.Errorf("error should name the file: %v", lerr)
		}
	}
}

// TestCheckpointEmbedsManifest: a runner carrying a manifest persists it,
// stamped with the spec digest, and it round-trips through Load.
func TestCheckpointEmbedsManifest(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	man := telemetry.Collect("sweep-test")
	man.Experiment = "fake"
	spec := testSpec(2)
	if _, err := (&Runner{Spec: spec, Point: fakePoint(42), CheckpointPath: ck, Manifest: man}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(ck)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Manifest == nil {
		t.Fatal("checkpoint has no manifest")
	}
	if loaded.Manifest.Tool != "sweep-test" || loaded.Manifest.Experiment != "fake" {
		t.Errorf("manifest fields lost: %+v", loaded.Manifest)
	}
	if loaded.Manifest.SpecDigest != spec.Digest() {
		t.Errorf("manifest spec digest = %q, want %q", loaded.Manifest.SpecDigest, spec.Digest())
	}
}

// TestRunnerTelemetry: a full sweep under a registry and trace reports one
// point_seconds observation and one checkpoint write per point, and the
// trace's point_done trial counts match the outcome exactly.
func TestRunnerTelemetry(t *testing.T) {
	reg := telemetry.New()
	var buf bytes.Buffer
	tr, err := telemetry.NewTrace(&buf, telemetry.Collect("sweep-test"))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(3)
	ck := filepath.Join(t.TempDir(), "ck.json")
	out, err := (&Runner{
		Spec: spec, Point: fakePoint(42), CheckpointPath: ck,
		Metrics: reg, Trace: tr, Manifest: telemetry.Collect("sweep-test"),
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sweep.points_done"]; got != 3 {
		t.Errorf("sweep.points_done = %d, want 3", got)
	}
	if got := snap.Counters["sweep.checkpoint_writes"]; got != 3 {
		t.Errorf("sweep.checkpoint_writes = %d, want 3", got)
	}
	if h := snap.Histograms["sweep.point_seconds"]; h.Count != 3 {
		t.Errorf("sweep.point_seconds histogram = %+v, want count 3", h)
	}

	var pointDone, sweepDone int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v", err)
		}
		switch ev["type"] {
		case "point_done":
			pt := int(ev["point"].(float64))
			trials := ev["trials"].([]any)
			if len(trials) != len(out.Done[pt].Ests) {
				t.Fatalf("point %d: %d trial entries, want %d", pt, len(trials), len(out.Done[pt].Ests))
			}
			for i, tv := range trials {
				if int(tv.(float64)) != out.Done[pt].Ests[i].Trials {
					t.Errorf("point %d est %d: trace trials %v != outcome %d", pt, i, tv, out.Done[pt].Ests[i].Trials)
				}
			}
			pointDone++
		case "sweep_done":
			if ev["complete"] != true {
				t.Errorf("sweep_done complete = %v", ev["complete"])
			}
			sweepDone++
		}
	}
	if pointDone != 3 || sweepDone != 1 {
		t.Errorf("trace events: point_done %d (want 3), sweep_done %d (want 1)", pointDone, sweepDone)
	}
}

// TestEarlyStopTraceRecordsHalfWidth: an early-stopped point's trace event
// carries the Wilson half-width that satisfied the rule.
func TestEarlyStopTraceRecordsHalfWidth(t *testing.T) {
	var buf bytes.Buffer
	tr, err := telemetry.NewTrace(&buf, telemetry.Collect("sweep-test"))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	spec := testSpec(1)
	spec.Trials = 1 << 20
	spec.Stop = StopRule{RelTol: 0.2, MinTrials: 500}
	if _, err := (&Runner{Spec: spec, Point: fakePoint(42), Metrics: reg, Trace: tr}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["sweep.early_stops"]; got != 1 {
		t.Fatalf("sweep.early_stops = %d, want 1", got)
	}
	found := false
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev["type"] != "early_stop" {
			continue
		}
		found = true
		rel, ok := ev["rel_halfwidth"].(float64)
		if !ok || rel <= 0 || rel > spec.Stop.RelTol {
			t.Errorf("early_stop rel_halfwidth = %v, want in (0, %g]", ev["rel_halfwidth"], spec.Stop.RelTol)
		}
		if ev["reltol"] != spec.Stop.RelTol {
			t.Errorf("early_stop reltol = %v", ev["reltol"])
		}
	}
	if !found {
		t.Error("no early_stop event in trace")
	}
}
