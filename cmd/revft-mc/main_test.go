package main

import (
	"strconv"
	"strings"
	"testing"

	"revft/internal/exp"
	"revft/internal/server"
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
