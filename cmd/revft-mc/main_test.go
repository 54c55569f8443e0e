package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"revft/internal/exp"
	"revft/internal/server"
	"revft/internal/telemetry"
)

// TestRemoteSpecDigest: with the default flags (-maxlevel 2, -bits 4) a
// recovery or local sweep submitted through -server hashes to the same
// digest as the bare spec other clients submit, while levels and adder
// keep the one parameter they read.
func TestRemoteSpecDigest(t *testing.T) {
	grid := server.JobSpec{GMin: 1e-4, GMax: 3e-2, Points: 7, Trials: 200000, Seed: 1, Engine: exp.EngineScalar}
	for _, name := range []string{"recovery", "local"} {
		bare := grid
		bare.Experiment = name
		if got, want := remoteSpec(name, 2, 4, grid).Digest(), bare.Digest(); got != want {
			t.Errorf("%s: -server digest %.12s, bare spec %.12s", name, got, want)
		}
	}
	if s := remoteSpec("levels", 2, 4, grid); s.MaxLevel != 2 || s.Bits != 0 {
		t.Errorf("levels spec carries maxlevel %d, bits %d; want 2, 0", s.MaxLevel, s.Bits)
	}
	if s := remoteSpec("adder", 2, 4, grid); s.MaxLevel != 0 || s.Bits != 4 {
		t.Errorf("adder spec carries maxlevel %d, bits %d; want 0, 4", s.MaxLevel, s.Bits)
	}
}

// TestMaxLevelBound: -maxlevel above exp.MaxLevel is a usage error,
// refused before any gadget is built.
func TestMaxLevelBound(t *testing.T) {
	err := run([]string{"-exp", "levels", "-maxlevel", strconv.Itoa(exp.MaxLevel + 1)})
	if err == nil || !strings.Contains(err.Error(), "-maxlevel") {
		t.Fatalf("run = %v, want a -maxlevel error", err)
	}
}

// TestNaNFlagsRefused: a NaN float flag passes every range comparison,
// so each is refused as a usage error before the spec digest would
// panic on it.
func TestNaNFlagsRefused(t *testing.T) {
	for _, flag := range []string{"-gmin", "-gmax", "-reltol", "-zeroscale"} {
		err := run([]string{"-exp", "recovery", "-points", "1", "-gmin", "1e-3", "-gmax", "1e-3", "-reltol", "0.1", flag, "NaN"})
		if err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s NaN: run = %v, want a usage error", flag, err)
		}
	}
}

// TestAblationsRunSelectedEngine: initablation, interleave and memory run
// the -engine they are given: every trial of the traced run is a lane
// trial, and the manifest names the engine.
func TestAblationsRunSelectedEngine(t *testing.T) {
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	for _, name := range []string{"initablation", "interleave", "memory"} {
		trace := filepath.Join(t.TempDir(), name+".jsonl")
		if err := run([]string{"-exp", name, "-engine", exp.EngineLanes512, "-gmin", "5e-3", "-gmax", "5e-3", "-points", "1",
			"-trials", "1000", "-seed", "1", "-trace", trace}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engine, counters := readTrace(t, trace)
		if engine != exp.EngineLanes512 {
			t.Errorf("%s: manifest engine %q", name, engine)
		}
		if lt, st := counters["lanes.trials"], counters["sim.trials"]; st == 0 || lt != st {
			t.Errorf("%s: lanes.trials %d, sim.trials %d; want every trial on the lane engine", name, lt, st)
		}
	}
}

// TestEngineWithoutLanePath: correlated, idle, entropy and vonneumann
// refuse a non-scalar -engine before running anything, and the correlated
// and idle drivers themselves refuse a lane engine before their first
// trial.
func TestEngineWithoutLanePath(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "correlated", "-gmax", "5e-3", "-trials", "1000"},
		{"-exp", "idle", "-gmax", "5e-3", "-trials", "1000"},
		{"-exp", "entropy"},
		{"-exp", "vonneumann"},
	} {
		err := run(append(args, "-engine", exp.EngineLanes512))
		if err == nil || !strings.Contains(err.Error(), "has no lane path") {
			t.Errorf("%s on lanes512: %v, want a usage error", args[1], err)
		}
	}
	p := exp.MCParams{Trials: 1000, Workers: 1, Seed: 1, Engine: exp.EngineLanes512}
	for name, driver := range map[string]func(context.Context) error{
		"correlated": func(ctx context.Context) error {
			_, err := exp.CorrelatedNoise(ctx, 5e-3, []float64{0.5}, p)
			return err
		},
		"idle": func(ctx context.Context) error {
			_, err := exp.IdleNoise(ctx, 5e-3, []float64{1}, p)
			return err
		},
	} {
		reg := telemetry.New()
		err := driver(telemetry.NewContext(context.Background(), reg))
		if err == nil || !strings.Contains(err.Error(), "lane engine runs only Noisy runs") {
			t.Errorf("%s driver on lanes512: %v, want the lane engine's refusal", name, err)
		}
		if n := reg.Snapshot().Counters[telemetry.TrialsMetric]; n != 0 {
			t.Errorf("%s driver on lanes512 ran %d trials before refusing", name, n)
		}
	}
}

// readTrace returns a JSONL trace's manifest engine and the counters of
// its last metrics snapshot.
func readTrace(t *testing.T, path string) (engine string, counters map[string]int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Type    string `json:"type"`
			Engine  string `json:"engine"`
			Metrics struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "manifest":
			engine = ev.Engine
		case "metrics":
			counters = ev.Metrics.Counters
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return engine, counters
}
