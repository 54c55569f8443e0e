package exp

import (
	"context"
	"strings"
	"testing"
)

// mustTable returns a sweep driver's table, failing the test on its
// error.
func mustTable(t *testing.T) func(*Table, error) *Table {
	return func(tb *Table, err error) *Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "longer"},
	}
	tb.AddRow(1, 2.5)
	tb.AddRow("xx", 1e-7)
	tb.AddNote("note %d", 7)
	s := tb.Format()
	for _, want := range []string{"== X: demo ==", "a", "longer", "xx", "note: note 7", "1.0000e-07"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("plain", `with "quote", comma`)
	csv := tb.CSV()
	want := "a,b\nplain,\"with \"\"quote\"\", comma\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTable1AllMatch(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 8 {
		t.Fatalf("Table1 has %d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[3] != "true" {
			t.Fatalf("Table1 row mismatch: %v", row)
		}
	}
}

func TestThresholdsTable(t *testing.T) {
	tb := Thresholds()
	if len(tb.Rows) != 6 {
		t.Fatalf("Thresholds has %d rows, want 6", len(tb.Rows))
	}
	// Spot-check the published denominators appear.
	s := tb.Format()
	for _, want := range []string{"165", "108", "360", "273", "2340", "2109"} {
		if !strings.Contains(s, want) {
			t.Fatalf("thresholds table missing %s:\n%s", want, s)
		}
	}
}

func TestTable2Rows(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 6 {
		t.Fatalf("Table2 has %d rows", len(tb.Rows))
	}
	if tb.Rows[3][1] != "27" {
		t.Fatalf("row 3 width = %s, want 27", tb.Rows[3][1])
	}
}

func TestBlowupWorkedExample(t *testing.T) {
	s := Blowup().Format()
	for _, want := range []string{"441", "81", "4.75", "3.17"} {
		if !strings.Contains(s, want) {
			t.Fatalf("blowup table missing %q:\n%s", want, s)
		}
	}
}

func TestEntropyBoundsTable(t *testing.T) {
	s := EntropyBounds().Format()
	if !strings.Contains(s, "2.3") {
		t.Fatalf("entropy table missing paper example 2.3:\n%s", s)
	}
}

func TestLocalCircuitAudit(t *testing.T) {
	tb := LocalCircuitAudit()
	s := tb.Format()
	for _, want := range []string{"45", "24", "40", "exhaustive"} {
		if !strings.Contains(s, want) {
			t.Fatalf("audit missing %q:\n%s", want, s)
		}
	}
}

func TestVonNeumannBaselineTable(t *testing.T) {
	s := VonNeumannBaseline().Format()
	if !strings.Contains(s, "0.0886") && !strings.Contains(s, "0.08862") {
		t.Fatalf("baseline missing threshold:\n%s", s)
	}
}

func TestAllAnalytic(t *testing.T) {
	tables := AllAnalytic()
	if len(tables) < 8 {
		t.Fatalf("only %d analytic tables", len(tables))
	}
	ids := make(map[string]bool)
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" || len(tb.Rows) == 0 {
			t.Fatalf("incomplete table %+v", tb)
		}
		ids[tb.ID] = true
	}
	for _, want := range []string{"T1", "T2", "B1", "E1", "VN", "UN"} {
		if !ids[want] {
			t.Fatalf("missing experiment id %s", want)
		}
	}
}

// Small-trial smoke tests of the Monte Carlo drivers: structure and sanity,
// not statistical precision (the cmd tools run the full budgets).
func TestRecoveryDriverSmoke(t *testing.T) {
	p := MCParams{Trials: 4000, Seed: 3}
	tb := mustTable(t)(RecoveryCtx(context.Background(), []float64{1e-3, 0.05}, p, SweepOptions{}))
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Below threshold the bound must hold.
	if tb.Rows[0][4] != "true" {
		t.Fatalf("Eq.1 bound violated at g=1e-3: %v", tb.Rows[0])
	}
}

func TestLevelsDriverSmoke(t *testing.T) {
	tb := mustTable(t)(LevelsCtx(context.Background(), []float64{2e-3}, 1, MCParams{Trials: 2000, Seed: 4}, SweepOptions{}))
	if len(tb.Rows) != 2 { // levels 0 and 1
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestLocalDriverSmoke(t *testing.T) {
	tb := mustTable(t)(LocalCtx(context.Background(), []float64{1e-3}, MCParams{Trials: 2000, Seed: 5}, SweepOptions{}))
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestEntropyMeasuredDriverSmoke(t *testing.T) {
	tb := EntropyMeasured([]float64{0.02}, MCParams{Trials: 50000, Seed: 6})
	if tb.Rows[0][4] != "true" {
		t.Fatalf("measured entropy outside bounds: %v", tb.Rows[0])
	}
}

func TestVonNeumannChainSmoke(t *testing.T) {
	tb := VonNeumannChain(MCParams{Trials: 10000, Seed: 7})
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestAdderModuleSmoke(t *testing.T) {
	tb := mustTable(t)(AdderModuleCtx(context.Background(), 2, []float64{1e-3}, MCParams{Trials: 3000, Seed: 8}, SweepOptions{}))
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][4] != "true" {
		t.Fatalf("FT did not beat bare adder below threshold: %v", tb.Rows[0])
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "b|c"}}
	tb.AddRow(1, "x|y")
	tb.AddNote("n")
	md := tb.Markdown()
	for _, want := range []string{"## X — demo", "| a | b\\|c |", "| --- | --- |", "x\\|y", "*n*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}
