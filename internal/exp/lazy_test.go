package exp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/lattice"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// TestFinishedSweepBuildsNothing: resuming a complete checkpoint
// allocates less than building one level-2 gadget does, and less than a
// resume that publishes gate counts by at least the driver's smallest
// target; resolving a driver through ShardableSweep allocates less than
// that target. So neither builds a circuit — and the resumed table is
// the computed one.
func TestFinishedSweepBuildsNothing(t *testing.T) {
	gs := []float64{2e-3, 1e-2}
	p := MCParams{Trials: 512, Workers: 1, Seed: 5, Engine: EngineLanes512}
	budget := testing.AllocsPerRun(3, func() { core.NewGadget(gate.MAJ, 2) })
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		run   func(SweepOptions) (*Table, error)
		build func() // the driver's smallest target
	}{
		{"levels", func(o SweepOptions) (*Table, error) { return LevelsCtx(ctx, gs, MaxLevel, p, o) },
			func() { core.NewGadget(gate.MAJ, 1) }},
		{"recovery", func(o SweepOptions) (*Table, error) { return RecoveryCtx(ctx, gs, p, o) },
			func() { core.NewGadget(gate.MAJ, 1) }},
		{"local", func(o SweepOptions) (*Table, error) { return LocalCtx(ctx, gs, p, o) },
			func() { lattice.NewCycle2D(gate.MAJ) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ck := filepath.Join(t.TempDir(), "ck.json")
			computed, err := c.run(SweepOptions{Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			var resumed *Table
			resume := testing.AllocsPerRun(5, func() {
				if resumed, err = c.run(SweepOptions{Checkpoint: ck, Resume: true}); err != nil {
					t.Fatal(err)
				}
			})
			shard := testing.AllocsPerRun(5, func() {
				if _, _, err := ShardableSweep(c.name, gs, MaxLevel, 0, p); err != nil {
					t.Fatal(err)
				}
			})
			// Gate counts build every target, so a resume with a registry
			// attached allocates at least one target more than one without.
			observed := testing.AllocsPerRun(5, func() {
				if _, err := c.run(SweepOptions{Checkpoint: ck, Resume: true, Metrics: telemetry.New()}); err != nil {
					t.Fatal(err)
				}
			})
			target := testing.AllocsPerRun(3, c.build)
			t.Logf("allocs: resume %.0f (%.0f observed), ShardableSweep %.0f, smallest target %.0f, NewGadget(MAJ, 2) %.0f",
				resume, observed, shard, target, budget)
			if resume >= budget {
				t.Errorf("resuming a complete sweep made %.0f allocations, not below one level-2 gadget's %.0f", resume, budget)
			}
			if observed-resume < target {
				t.Errorf("a resume with a registry made %.0f allocations and one without %.0f: the bare resume built a target", observed, resume)
			}
			if shard >= target {
				t.Errorf("ShardableSweep made %.0f allocations, not below its smallest target's %.0f", shard, target)
			}
			if !reflect.DeepEqual(resumed, computed) {
				t.Errorf("resumed table differs from the computed one:\n%s\nvs\n%s", resumed.Format(), computed.Format())
			}
		})
	}
}

// TestPointFuncConcurrentFirstUse: four goroutines that race to build the
// same level's gadget get the estimates a serial run gets.
func TestPointFuncConcurrentFirstUse(t *testing.T) {
	gs := []float64{1e-3, 2e-3, 5e-3, 1e-2}
	const maxLevel = 2
	p := MCParams{Trials: 1024, Workers: 1, Seed: 9, Engine: EngineLanes512}
	ctx := context.Background()

	serialFn, _, err := ShardableSweep("levels", gs, maxLevel, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]stats.Bernoulli, len(gs))
	for i := range gs {
		if want[i], err = serialFn(ctx, maxLevel*len(gs)+i, 0, p.Trials); err != nil {
			t.Fatal(err)
		}
	}

	fn, _, err := ShardableSweep("levels", gs, maxLevel, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]stats.Bernoulli, len(gs))
	errs := make([]error, len(gs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = fn(ctx, maxLevel*len(gs)+i, 0, p.Trials)
		}()
	}
	close(start)
	wg.Wait()
	for i := range gs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("level %d at g=%g: concurrent %v, serial %v", maxLevel, gs[i], got[i], want[i])
		}
	}
}

// TestLevelsGateCountsWhenObserved: a registry or a trace attached to a
// levels sweep gets each level's physical op count and the paper's G, on
// a computed run and on a complete resume alike.
func TestLevelsGateCountsWhenObserved(t *testing.T) {
	gs := []float64{1e-3}
	p := MCParams{Trials: 512, Workers: 1, Seed: 3, Engine: EngineLanes512}
	want := map[string]float64{
		"L0.physical_ops": 1,
		"L1.physical_ops": 27,
		"L2.physical_ops": 729,
		"G_analytic":      11,
	}
	ck := filepath.Join(t.TempDir(), "ck.json")
	for _, resume := range []bool{false, true} {
		reg := telemetry.New()
		if _, err := LevelsCtx(context.Background(), gs, 2, p, SweepOptions{Checkpoint: ck, Resume: resume, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		for name, v := range want {
			if got := snap.Gauges["exp.levels."+name]; got != v {
				t.Errorf("resume=%v: gauge exp.levels.%s = %v, want %v", resume, name, got, v)
			}
		}

		var buf bytes.Buffer
		tr, err := telemetry.NewTrace(&buf, telemetry.Collect("exp-test"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LevelsCtx(context.Background(), gs, 2, p, SweepOptions{Checkpoint: ck, Resume: resume, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			var ev map[string]any
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("trace line not JSON: %v", err)
			}
			if ev["type"] == "gate_counts" {
				events = append(events, ev)
			}
		}
		if len(events) != 1 {
			t.Fatalf("resume=%v: %d gate_counts events, want 1", resume, len(events))
		}
		if events[0]["experiment"] != "levels" {
			t.Errorf("resume=%v: gate_counts experiment = %v, want levels", resume, events[0]["experiment"])
		}
		for name, v := range want {
			if got := events[0][name]; got != v {
				t.Errorf("resume=%v: gate_counts %s = %v, want %v", resume, name, got, v)
			}
		}
	}
}

// BenchmarkResume times the hit of the threshold sweep: resuming a
// complete maxlevel-2 levels checkpoint. Run it with
//
//	go test ./internal/exp -run '^$' -bench Resume
func BenchmarkResume(b *testing.B) {
	gs := []float64{6.06e-4, 1.36e-3, 3.03e-3}
	p := MCParams{Trials: 512, Workers: 1, Seed: 1, Engine: EngineLanes512}
	ck := filepath.Join(b.TempDir(), "ck.json")
	ctx := context.Background()
	want, err := LevelsCtx(ctx, gs, 2, p, SweepOptions{Checkpoint: ck})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := LevelsCtx(ctx, gs, 2, p, SweepOptions{Checkpoint: ck, Resume: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			b.Fatalf("resumed %d rows, want %d", len(got.Rows), len(want.Rows))
		}
	}
}
