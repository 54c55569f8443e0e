package exp

import (
	"strconv"
	"strings"
	"testing"
)

// TestInitAblationSmoke: noisy initialization is worse than perfect
// initialization. At g = 5e-3 the two level-1 rates are ≈ 3.0e-4 and
// 2.4e-4, so each runs 1.5M trials to put the expected gap over 3σ of
// its shot noise; at 60k trials the gap was under 1σ.
func TestInitAblationSmoke(t *testing.T) {
	tb := InitAblation([]float64{5e-3}, MCParams{Trials: 1500000, Seed: 3})
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	noisy, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	perfect, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	if noisy <= perfect {
		t.Fatalf("noisy init (%v) should be worse than perfect init (%v)", noisy, perfect)
	}
}

func TestCorrelatedNoiseSmoke(t *testing.T) {
	tb := CorrelatedNoise(5e-3, []float64{0, 0.9}, MCParams{Trials: 60000, Seed: 4})
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
	tb := InterleaveAblation([]float64{2e-3}, MCParams{Trials: 20000, Seed: 5})
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
	tb := MemoryExperiment(8e-3, []int{5, 20}, MCParams{Trials: 30000, Seed: 6})
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
	tb := IdleNoise(2e-3, []float64{0, 1}, MCParams{Trials: 40000, Seed: 7})
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
