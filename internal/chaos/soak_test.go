// The chaos soak: the whole resilient runtime — checkpointed sweep,
// retry policy, degradable trace — run under sustained randomized fault
// injection, with the contract checked at the end: the final results are
// bit-identical to a fault-free run, the checkpoint directory holds no
// temp litter, and every dropped trace event is accounted for.
//
// The test lives outside package chaos so it can drive the real sweep
// and telemetry stacks (which themselves import chaos).
package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"revft/internal/chaos"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// soakPoint mirrors the sweep package's deterministic test PointFunc:
// estimates derived purely from (seed, pt, start, trials), so chaotic
// and clean runs are comparable bit-for-bit.
func soakPoint(seed uint64) sweep.PointFunc {
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := sim.MonteCarloCtx(ctx, start, trials, 1, seed+uint64(pt), func(r *rng.RNG) bool { return r.Bool(0.1) })
		return []stats.Bernoulli{res.Bernoulli}, err
	}
}

func soakSpec() sweep.Spec {
	return sweep.Spec{
		Experiment: "soak",
		Grid:       []float64{1e-3, 2e-3, 4e-3, 8e-3},
		Points:     4,
		Trials:     2000,
		Workers:    2,
		Seed:       42,
		Engine:     "scalar",
	}
}

// TestChaosSoak runs the checkpointed sweep under fault rates well above
// anything a real disk produces, resuming after every failure like an
// operator (or a crash-looping service) would, until it completes.
func TestChaosSoak(t *testing.T) {
	spec := soakSpec()
	ref, err := (&sweep.Runner{Spec: spec, Point: soakPoint(42)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, rate := range []float64{0.05, 0.2} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rate=%v/seed=%d", rate, seed), func(t *testing.T) {
				soakOnce(t, spec, ref, rate, seed)
			})
		}
	}
}

// TestChaosSoakTraceDegradation pins the degradation half of the
// contract, which the moderate rates above rarely reach: a trace on a
// near-dead filesystem degrades, while the sweep it was observing — on
// healthy storage — completes untouched and bit-identical.
func TestChaosSoakTraceDegradation(t *testing.T) {
	spec := soakSpec()
	ref, err := (&sweep.Runner{Spec: spec, Point: soakPoint(42)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	traceFS := &chaos.InjectFS{Hook: chaos.Prob(0.9, 11, chaos.WriteOps...), Torn: true}
	retry := chaos.Policy{
		MaxAttempts: 2,
		Seed:        11,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	reg := telemetry.New()
	ft, err := telemetry.NewTraceFile(filepath.Join(dir, "trace.jsonl"), telemetry.Collect("soak"),
		telemetry.FileTraceOptions{FS: traceFS, Retry: retry, Metrics: reg, Warn: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()

	out, err := (&sweep.Runner{
		Spec: spec, Point: soakPoint(42), CheckpointPath: filepath.Join(dir, "ck.json"),
		Metrics: reg, Trace: ft.Trace,
	}).Run(context.Background())
	if err != nil || !out.Complete {
		t.Fatalf("sweep perturbed by trace chaos: %v (complete=%v)", err, out != nil && out.Complete)
	}
	if !reflect.DeepEqual(out.Done, ref.Done) {
		t.Error("results differ under trace chaos")
	}
	if !ft.Degraded() {
		t.Fatal("trace survived a 90% op fault rate with 2 attempts per write — injection is not reaching it")
	}
	s := reg.Snapshot()
	if s.Gauges["trace.degraded"] != 1 || s.Counters["trace.events_dropped"] != ft.Dropped() || ft.Dropped() == 0 {
		t.Errorf("degradation bookkeeping inconsistent: gauge=%v counter=%d dropped=%d",
			s.Gauges["trace.degraded"], s.Counters["trace.events_dropped"], ft.Dropped())
	}
}

func soakOnce(t *testing.T, spec sweep.Spec, ref *sweep.Outcome, rate float64, seed uint64) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	fsys := &chaos.InjectFS{
		Hook: chaos.Prob(rate, seed, chaos.WriteOps...),
		Torn: true,
	}
	retry := chaos.Policy{
		MaxAttempts: 4,
		Seed:        seed,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	reg := telemetry.New()

	// The trace shares the chaotic filesystem; under a 20% op fault rate
	// it will eventually degrade, which must never perturb the sweep.
	ft, err := telemetry.NewTraceFile(filepath.Join(dir, "trace.jsonl"), telemetry.Collect("soak"),
		telemetry.FileTraceOptions{FS: fsys, Retry: retry, Metrics: reg, Warn: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()

	var out *sweep.Outcome
	attempts := 0
	for ; attempts < 100; attempts++ {
		resume := false
		if _, serr := os.Stat(ck); serr == nil {
			resume = true
		}
		out, err = (&sweep.Runner{
			Spec: spec, Point: soakPoint(42), CheckpointPath: ck, Resume: resume,
			FS: fsys, Retry: retry, Metrics: reg, Trace: ft.Trace,
		}).Run(context.Background())
		if err == nil && out.Complete {
			break
		}
		// Every failure must be the injected kind, reported loudly — not
		// swallowed, not anything else.
		if !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("attempt %d failed with a non-injected error: %v", attempts, err)
		}
	}
	if out == nil || !out.Complete {
		t.Fatalf("sweep never completed in %d attempts at rate %v", attempts, rate)
	}
	t.Logf("rate %v seed %d: completed after %d interrupted attempts; %d checkpoint retries, %d trace events dropped",
		rate, seed, attempts, reg.Snapshot().Counters["sweep.checkpoint_retries"], ft.Dropped())

	// Contract 1: bit-identical results.
	if !reflect.DeepEqual(out.Done, ref.Done) {
		t.Error("chaotic sweep results differ from the fault-free run")
	}
	// Contract 2: the checkpoint on disk is the complete run's.
	loaded, err := sweep.Load(ck)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if !reflect.DeepEqual(loaded.Done, ref.Done) {
		t.Error("final checkpoint differs from the fault-free results")
	}
	// Contract 3: zero temp litter.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
		t.Errorf("leaked temp files: %v", tmps)
	}
	// Contract 4: degradation bookkeeping is consistent. Dropped events
	// are counted in the registry; a degraded trace flies the gauge.
	s := reg.Snapshot()
	if got := s.Counters["trace.events_dropped"]; got != ft.Dropped() {
		t.Errorf("trace.events_dropped = %d, FileTrace.Dropped = %d", got, ft.Dropped())
	}
	if ft.Degraded() && s.Gauges["trace.degraded"] != 1 {
		t.Errorf("trace degraded but gauge = %v", s.Gauges["trace.degraded"])
	}
	if !ft.Degraded() && ft.Dropped() != 0 {
		t.Errorf("undegraded trace dropped %d events", ft.Dropped())
	}
}
