package exp

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"revft/internal/core"
	"revft/internal/exact"
	"revft/internal/gate"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// TestInitAblationSmoke: noisy initialization is worse than perfect
// initialization. The exact part compares the level-1 gadget's weight-2
// oracle polynomials under both accountings: the pair coefficient A₂ and
// the whole interval [P(g), P(g)+tail] at g = 2e-3. The Monte Carlo part
// runs the table on the lanes512 engine and checks each rate cell against
// its oracle interval under the differential verdict.
func TestInitAblationSmoke(t *testing.T) {
	gad := core.NewGadget(gate.MAJ, 1)
	polys := map[bool]*exact.Poly{}
	for _, skip := range []bool{false, true} {
		poly, err := exact.Enumerate(gad.Target, exact.Options{MaxWeight: 2, SkipInit: skip})
		if err != nil {
			t.Fatal(err)
		}
		polys[skip] = poly
	}
	noisy, perfect := polys[false], polys[true]
	if a, b := noisy.Coeff(2), perfect.Coeff(2); a.RatString() != "825/64" || b.RatString() != "633/64" {
		t.Fatalf("A₂ noisy init %s, perfect init %s; want 825/64 and 633/64", a.RatString(), b.RatString())
	}
	nlo, _ := noisy.Bounds(2e-3)
	_, phi := perfect.Bounds(2e-3)
	if nlo <= phi {
		t.Fatalf("at g = 2e-3 noisy init's interval starts at %.4g, inside perfect init's (up to %.4g)", nlo, phi)
	}

	const g, trials = 5e-3, 1 << 17
	tb := mustTable(t)(InitAblation(context.Background(), []float64{g}, MCParams{Trials: trials, Seed: 3, Engine: EngineLanes512}))
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i, poly := range []*exact.Poly{noisy, perfect} {
		rate, err := strconv.ParseFloat(tb.Rows[0][1+i], 64)
		if err != nil {
			t.Fatal(err)
		}
		est := stats.Bernoulli{Trials: trials, Successes: int(math.Round(rate * trials))}
		if lo, hi := poly.Bounds(g); !overlapsExact(est, lo, hi) {
			t.Errorf("%s: measured %v outside the oracle's [%.4g, %.4g]", tb.Header[1+i], est, lo, hi)
		}
	}
}

// TestAblationsCancelled: every ablation driver called with a cancelled
// context returns context.Canceled without running a trial block.
func TestAblationsCancelled(t *testing.T) {
	p := MCParams{Trials: 1 << 20, Seed: 1}
	for name, run := range map[string]func(context.Context) (*Table, error){
		"initablation": func(ctx context.Context) (*Table, error) { return InitAblation(ctx, []float64{5e-3}, p) },
		"correlated":   func(ctx context.Context) (*Table, error) { return CorrelatedNoise(ctx, 5e-3, []float64{0.5}, p) },
		"interleave":   func(ctx context.Context) (*Table, error) { return InterleaveAblation(ctx, []float64{2e-3}, p) },
		"memory":       func(ctx context.Context) (*Table, error) { return MemoryExperiment(ctx, 5e-3, []int{5}, p) },
		"idle":         func(ctx context.Context) (*Table, error) { return IdleNoise(ctx, 2e-3, []float64{1}, p) },
	} {
		reg := telemetry.New()
		ctx, cancel := context.WithCancel(telemetry.NewContext(context.Background(), reg))
		cancel()
		tb, err := run(ctx)
		if !errors.Is(err, context.Canceled) || tb != nil {
			t.Errorf("%s: table %v, err %v; want no table and context.Canceled", name, tb, err)
		}
		if n := reg.Counter("sim.batches").Load(); n != 0 {
			t.Errorf("%s: ran %d blocks after cancellation", name, n)
		}
	}
}

func TestCorrelatedNoiseSmoke(t *testing.T) {
	tb := mustTable(t)(CorrelatedNoise(context.Background(), 5e-3, []float64{0, 0.9}, MCParams{Trials: 60000, Seed: 4}))
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	uncorr, _ := strconv.ParseFloat(tb.Rows[0][3], 64)
	corr, _ := strconv.ParseFloat(tb.Rows[1][3], 64)
	if corr <= uncorr {
		t.Fatalf("correlated faults (%v) should beat IID (%v) for badness", corr, uncorr)
	}
}

func TestExactThresholdsTable(t *testing.T) {
	tb := ExactThresholds()
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		imp, err := strconv.ParseFloat(row[4], 64)
		if err != nil || imp <= 1 {
			t.Fatalf("exact threshold not an improvement: %v", row)
		}
	}
}

func TestInterleaveAblationSmoke(t *testing.T) {
	tb := mustTable(t)(InterleaveAblation(context.Background(), []float64{2e-3}, MCParams{Trials: 20000, Seed: 5}))
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Perpendicular must report 0 failures; the others nonzero.
	if tb.Rows[0][1] != "0" {
		t.Fatalf("perpendicular scheme reported failures: %v", tb.Rows[0])
	}
	for _, i := range []int{1, 2} {
		if tb.Rows[i][1] == "0" {
			t.Fatalf("scheme %s unexpectedly clean", tb.Rows[i][0])
		}
	}
}

func TestNANDSimulationTable(t *testing.T) {
	tb := NANDSimulation()
	s := tb.Format()
	if !strings.Contains(s, "1.5") || !strings.Contains(s, "2") {
		t.Fatalf("NAND table missing entropy values:\n%s", s)
	}
	for _, row := range tb.Rows {
		if row[1] != "true" {
			t.Fatalf("construction %s does not compute NAND", row[0])
		}
	}
}

func TestSynthesisCostsTable(t *testing.T) {
	tb := SynthesisCosts()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][1] != "3" {
		t.Fatalf("MAJ min ops = %s, want 3", tb.Rows[0][1])
	}
}

func TestMemoryExperimentSmoke(t *testing.T) {
	tb := mustTable(t)(MemoryExperiment(context.Background(), 8e-3, []int{5, 20}, MCParams{Trials: 30000, Seed: 6}))
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	e5, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	e20, _ := strconv.ParseFloat(tb.Rows[1][1], 64)
	if e20 <= e5 {
		t.Fatalf("more cycles (%v) should accumulate more error than fewer (%v)", e20, e5)
	}
}

func TestIdleNoiseSmoke(t *testing.T) {
	tb := mustTable(t)(IdleNoise(context.Background(), 2e-3, []float64{0, 1}, MCParams{Trials: 40000, Seed: 7}))
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// With idle noise on, both schemes get worse; 1D stays worse than 2D.
	r0, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	r1, _ := strconv.ParseFloat(tb.Rows[1][2], 64)
	if r1 <= r0 {
		t.Fatalf("idle noise did not hurt the 1D cycle: %v -> %v", r0, r1)
	}
}

func TestPairAnalysisTable(t *testing.T) {
	tb := PairAnalysis()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	c2, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	if c2 <= 0 || c2 >= 165 {
		t.Fatalf("c₂ = %v out of expected range", c2)
	}
	if tb.Rows[1][2] == "0" {
		t.Fatal("no malignant pairs reported")
	}
}
