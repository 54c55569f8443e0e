package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"revft/internal/server"
	"revft/internal/stats"
	"revft/internal/sweep"
)

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs a workload at tiny size and returns its output and
// decoded result line.
func runTiny(t *testing.T, workload string, trace bool, work string) (string, resultLine) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: 7, seconds: time.Second, trace: trace, work: work, size: tinySizes}
	code, err := execute(cfg, &out)
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

// TestSmoke runs every workload untraced and traced at tiny size: every
// declared metric is emitted with its unit, the output checks ran and
// passed, and a second traced run repeats every exact count.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w + "/untraced"
			defs := endToEnd
			if trace {
				name, defs = w+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				work := t.TempDir()
				out, res := runTiny(t, w, trace, work)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if !trace {
					return
				}
				if !strings.Contains(out, "spans ") {
					t.Errorf("traced run wrote no spans\n%s", out)
				}
				again, _ := runTiny(t, w, trace, work)
				if strings.Contains(again, "COUNT DRIFT") {
					t.Errorf("exact counts changed between two runs of the same seed:\n%s", again)
				}
			})
		}
	}
}

func TestOracleFlagsWrongEstimate(t *testing.T) {
	orc, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	grid := levelsGrid()
	lo, _ := orc.polys[1].Bounds(grid[0])
	n := 1 << 24
	right := []sweep.PointResult{{Index: len(grid), Ests: []stats.Bernoulli{{Trials: n, Successes: int(lo * float64(n))}}}}
	if bad := orc.check(grid, right); len(bad) != 0 {
		t.Errorf("a level-1 estimate at the oracle's rate was flagged: %v", bad)
	}
	wrong := []sweep.PointResult{{Index: len(grid), Ests: []stats.Bernoulli{{Trials: n, Successes: int(3 * lo * float64(n))}}}}
	if bad := orc.check(grid, wrong); len(bad) != 1 {
		t.Errorf("a level-1 estimate at 3x the oracle's rate was not flagged")
	}
}

func TestCheckOpsFlagsWrongOutput(t *testing.T) {
	ctx := context.Background()
	spec := server.JobSpec{Tenant: "t", Experiment: "recovery", GMin: 1e-3, GMax: 2e-3, Points: 2, Trials: 512, Seed: 3, Engine: "lanes"}
	want, err := recompute(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	res := server.Result{Experiment: "recovery", SpecDigest: spec.Digest(), Grid: spec.Grid()}
	for i, e := range want {
		res.Points = append(res.Points, server.ResultPoint{Index: i, Ests: e})
	}
	good, _ := json.Marshal(res)
	res.Points[1].Ests = []stats.Bernoulli{{Trials: 512, Successes: want[1][0].Successes + 1}}
	bad, _ := json.Marshal(res)
	src := &op{kind: "fresh", spec: spec, data: good}
	for _, c := range []struct {
		o     *op
		fails int
	}{
		{src, 0},
		{&op{kind: "fresh", spec: spec, data: bad}, 1},
		{&op{kind: "repeat", spec: spec, src: src, data: good}, 0},
		{&op{kind: "repeat", spec: spec, src: src, data: bad}, 1},
	} {
		r := &run{m: metrics{}}
		checkOps(ctx, r, []*op{c.o})
		if len(r.failures) != c.fails || r.attempted != 1 {
			t.Errorf("%s op: %d failures of %d, want %d of 1: %v", c.o.kind, len(r.failures), r.attempted, c.fails, r.failures)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command   []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %v", b.Command)
	}
	if len(b.Workloads) != gatedWorkloads {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), gatedWorkloads)
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q %q", i, w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics, want %d", len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if d.Name != c.want[i].name || d.Unit != c.want[i].unit {
				t.Errorf("metric %d: %s %s, want %s %s", i, d.Name, d.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s bound %v", d.Name, d.Bound)
		}
	}
}
