package exp

import (
	"context"
	"strings"
	"testing"

	"revft/internal/adder"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/telemetry"
)

// Wide-vs-scalar equivalence: the 4- and 8-word lane engines must agree
// with the scalar engine under the same 95% Wilson overlap criterion as
// the 64-lane engine.

func TestGadgetWideEnginesEquivalentSweep(t *testing.T) {
	gad := core.NewGadget(gate.MAJ, 1)
	const trials = 40000
	for i, g := range []float64{1e-3, 5e-3, 2e-2} {
		run := core.Noisy(noise.Uniform(g))
		seed := uint64(400 + i)
		scalar := mustRate(t)(gad.Estimate(context.Background(), core.Uniform, run, 0, 0, trials, 4, seed))
		for _, words := range []int{4, 8} {
			wide := mustRate(t)(gad.Estimate(context.Background(), core.Uniform, run, words, 0, trials, 4, seed))
			if wide.Trials != trials {
				t.Fatalf("words=%d: wide engine ran %d trials, want %d", words, wide.Trials, trials)
			}
			requireOverlap(t, "level-1 MAJ gadget (wide)", g, scalar, wide)
		}
	}
}

func TestModuleWideEnginesEquivalent(t *testing.T) {
	logical, _ := adder.New(2)
	ft := core.CompileModule(logical, 1).Target()
	bare := core.Plain("unprotected", logical)
	const trials = 20000
	in := core.Fixed(0b0110)
	must := mustRate(t)
	ctx := context.Background()
	for i, g := range []float64{1e-3, 5e-3} {
		run := core.Noisy(noise.Uniform(g))
		seed := uint64(500 + i)
		requireOverlap(t, "FT adder module (wide)", g,
			must(ft.Estimate(ctx, in, run, 0, 0, trials, 4, seed)),
			must(ft.Estimate(ctx, in, run, 4, 0, trials, 4, seed)))
		requireOverlap(t, "bare adder (wide)", g,
			must(bare.Estimate(ctx, in, run, 0, 0, trials, 4, seed)),
			must(bare.Estimate(ctx, in, run, 4, 0, trials, 4, seed)))
	}
}

// TestDriversAcceptWideEngines smoke-tests the routed drivers with the
// lanes256/lanes512 engines, mirroring TestDriversAcceptLanesEngine.
func TestDriversAcceptWideEngines(t *testing.T) {
	if w := (MCParams{Engine: EngineLanes256}).wideWords(); w != 4 {
		t.Fatalf("lanes256 wideWords = %d, want 4", w)
	}
	if w := (MCParams{Engine: EngineLanes512}).wideWords(); w != 8 {
		t.Fatalf("lanes512 wideWords = %d, want 8", w)
	}
	if w := (MCParams{Engine: EngineLanes}).wideWords(); w != 1 {
		t.Fatalf("lanes wideWords = %d, want 1", w)
	}
	for _, name := range []string{"", EngineScalar} {
		if w := (MCParams{Engine: name}).wideWords(); w != 0 {
			t.Fatalf("%q wideWords = %d, want 0", name, w)
		}
	}
	for _, name := range []string{"", EngineScalar, EngineLanes, EngineLanes256, EngineLanes512} {
		if !ValidEngine(name) || CheckEngine(name) != nil {
			t.Fatalf("engine %q rejected", name)
		}
	}
	if got := strings.Join(EngineNames(), "|"); got != "scalar|lanes|lanes256|lanes512" {
		t.Fatalf("EngineNames = %s, want scalar|lanes|lanes256|lanes512", got)
	}
	for _, bad := range []string{"lanes128", "Lanes", "lanes64"} {
		if ValidEngine(bad) {
			t.Fatalf("ValidEngine accepted unknown engine %q", bad)
		}
		if err := CheckEngine(bad); err == nil || !strings.Contains(err.Error(), "scalar, lanes, lanes256, lanes512") {
			t.Fatalf("CheckEngine(%q) = %v, want an error listing the engines", bad, err)
		}
	}

	tb := mustTable(t)(RecoveryCtx(context.Background(), []float64{2e-3}, MCParams{Trials: 30000, Seed: 9, Engine: EngineLanes256}, SweepOptions{}))
	if len(tb.Rows) != 1 {
		t.Fatalf("Recovery rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][4] != "true" || tb.Rows[0][5] != "true" {
		t.Fatalf("lanes256 Recovery below threshold failed: %v", tb.Rows[0])
	}

	tb = mustTable(t)(LevelsCtx(context.Background(), []float64{2e-3}, 1, MCParams{Trials: 2000, Seed: 4, Engine: EngineLanes512}, SweepOptions{}))
	if len(tb.Rows) != 2 {
		t.Fatalf("Levels rows = %d", len(tb.Rows))
	}

	tb = mustTable(t)(LocalCtx(context.Background(), []float64{1e-3}, MCParams{Trials: 2000, Seed: 5, Engine: EngineLanes256}, SweepOptions{}))
	if len(tb.Rows) != 1 {
		t.Fatalf("Local rows = %d", len(tb.Rows))
	}

	tb = mustTable(t)(AdderModuleCtx(context.Background(), 2, []float64{2e-3}, MCParams{Trials: 5000, Seed: 6, Engine: EngineLanes512}, SweepOptions{}))
	if len(tb.Rows) != 1 {
		t.Fatalf("AdderModule rows = %d", len(tb.Rows))
	}
}

// TestLaneFaultTelemetryCountsSlots is the slot-vs-trial regression: with
// p = 1 every op faults in every simulated lane slot, so the fault
// counter must equal ops × lanes.slots — not ops × lanes.trials — and a
// per-trial fault rate normalized by lanes.slots comes out exactly 1 per
// op. trials = 65 forces a partial final batch on every engine, so the
// two denominators genuinely differ.
func TestLaneFaultTelemetryCountsSlots(t *testing.T) {
	gad := core.NewGadget(gate.MAJ, 1)
	ops := int64(gad.Circuit.Len())
	const trials = 65
	for _, tc := range []struct {
		engine string
		slots  int64
	}{
		{"lanes", 128},    // two 64-lane batches
		{"lanes256", 256}, // one 256-lane block
		{"lanes512", 512}, // one 512-lane block
	} {
		reg := telemetry.New()
		ctx := telemetry.NewContext(context.Background(), reg)
		res, err := gad.Estimate(ctx, core.Uniform, core.Noisy(noise.Uniform(1)), MCParams{Engine: tc.engine}.wideWords(), 0, trials, 1, 3)
		if err != nil {
			t.Fatalf("%s: %v", tc.engine, err)
		}
		if res.Trials != trials {
			t.Fatalf("%s: counted %d trials, want %d", tc.engine, res.Trials, trials)
		}
		if got := reg.Counter("lanes.trials").Load(); got != trials {
			t.Errorf("%s: lanes.trials = %d, want %d", tc.engine, got, trials)
		}
		if got := reg.Counter("lanes.slots").Load(); got != tc.slots {
			t.Errorf("%s: lanes.slots = %d, want %d", tc.engine, got, tc.slots)
		}
		if got := reg.Counter("lanes.faults").Load(); got != ops*tc.slots {
			t.Errorf("%s: lanes.faults = %d, want ops(%d) × slots(%d) = %d",
				tc.engine, got, ops, tc.slots, ops*tc.slots)
		}
	}
}
