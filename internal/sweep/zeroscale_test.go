package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// TestZeroScaleOmittedFromDigest: the field is omitempty, so rules written
// before it existed — and every checkpoint digest derived from them — are
// byte-identical to a rule with ZeroScale = 0.
func TestZeroScaleOmittedFromDigest(t *testing.T) {
	b, err := json.Marshal(StopRule{RelTol: 0.1, MinTrials: 500})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "zero_scale") {
		t.Fatalf("zero-value ZeroScale leaked into the encoding: %s", b)
	}
	spec := testSpec(1)
	spec.Stop = StopRule{RelTol: 0.1}
	base := spec.Digest()
	spec.Stop.ZeroScale = 1e-6
	if spec.Digest() == base {
		t.Fatal("digest does not cover ZeroScale")
	}
}

func TestConvergedBranch(t *testing.T) {
	// 0/500: Wilson(1.96) upper bound ≈ 0.0076.
	zero := stats.Bernoulli{Trials: 500}
	// 400/500: relative half-width well under 20%.
	tight := stats.Bernoulli{Trials: 500, Successes: 400}

	cases := []struct {
		name   string
		rule   StopRule
		ests   []stats.Bernoulli
		ok     bool
		branch string
	}{
		{"relative", StopRule{RelTol: 0.2}, []stats.Bernoulli{tight}, true, BranchRelative},
		{"zero without scale", StopRule{RelTol: 0.2}, []stats.Bernoulli{zero}, false, ""},
		{"zero under scale", StopRule{RelTol: 0.2, ZeroScale: 0.05}, []stats.Bernoulli{zero}, true, BranchZeroAbsolute},
		{"zero over scale", StopRule{RelTol: 0.2, ZeroScale: 1e-4}, []stats.Bernoulli{zero}, false, ""},
		{"mixed", StopRule{RelTol: 0.2, ZeroScale: 0.05}, []stats.Bernoulli{tight, zero}, true, BranchZeroAbsolute},
		{"empty", StopRule{RelTol: 0.2, ZeroScale: 0.05}, nil, false, ""},
	}
	for _, tc := range cases {
		ok, branch := tc.rule.ConvergedBranch(tc.ests)
		if ok != tc.ok || branch != tc.branch {
			t.Errorf("%s: ConvergedBranch = (%v, %q), want (%v, %q)", tc.name, ok, branch, tc.ok, tc.branch)
		}
		if tc.rule.Converged(tc.ests) != tc.ok {
			t.Errorf("%s: Converged disagrees with ConvergedBranch", tc.name)
		}
	}
}

func TestMaxRelHalfWidthZeroSuccess(t *testing.T) {
	zero := []stats.Bernoulli{{Trials: 500}}
	if got := (StopRule{RelTol: 0.2}).MaxRelHalfWidth(zero); !math.IsInf(got, 1) {
		t.Errorf("without ZeroScale: %v, want +Inf", got)
	}
	rule := StopRule{RelTol: 0.2, ZeroScale: 0.05}
	_, hi := zero[0].Wilson(1.96)
	if got := rule.MaxRelHalfWidth(zero); got != hi/rule.ZeroScale {
		t.Errorf("with ZeroScale: %v, want hi/scale = %v", got, hi/rule.ZeroScale)
	}
}

// TestZeroScaleEarlyStop: with the fallback configured, a point that never
// fails stops at the floor instead of burning the whole ceiling, and the
// trace records which branch fired.
func TestZeroScaleEarlyStop(t *testing.T) {
	var buf bytes.Buffer
	tr, err := telemetry.NewTrace(&buf, telemetry.Collect("sweep-test"))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1)
	spec.Trials = 4000
	spec.Stop = StopRule{RelTol: 0.2, MinTrials: 500, ZeroScale: 0.05}
	zero := func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		return []stats.Bernoulli{{Trials: trials}}, nil
	}
	out, err := (&Runner{Spec: spec, Point: zero, Trace: tr}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := out.Done[0]
	// The floor of 500 rounds up to one whole block.
	if !p.Stopped || p.Ests[0].Trials != sim.BlockTrials {
		t.Fatalf("zero-success point: stopped=%v trials=%d, want true/%d", p.Stopped, p.Ests[0].Trials, sim.BlockTrials)
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
		if ev["branch"] != BranchZeroAbsolute {
			t.Errorf("early_stop branch = %v, want %q", ev["branch"], BranchZeroAbsolute)
		}
		if rel, ok := ev["rel_halfwidth"].(float64); !ok || math.IsInf(rel, 1) || rel > spec.Stop.RelTol {
			t.Errorf("early_stop rel_halfwidth = %v, want finite ≤ %g", ev["rel_halfwidth"], spec.Stop.RelTol)
		}
	}
	if !found {
		t.Error("no early_stop event in trace")
	}
}
