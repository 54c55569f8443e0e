package telemetry

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every metric operation on a nil registry and nil metrics must be a
	// no-op, not a panic: that is what lets instrumented hot paths run
	// unguarded when telemetry is off.
	var reg *Registry
	reg.Counter("c").Add(5)
	reg.Counter("c").Inc()
	if got := reg.Counter("c").Load(); got != 0 {
		t.Errorf("nil counter Load = %d, want 0", got)
	}
	reg.Gauge("g").Set(1.5)
	if got := reg.Gauge("g").Load(); got != 0 {
		t.Errorf("nil gauge Load = %g, want 0", got)
	}
	reg.Histogram("h", LatencyBuckets).Observe(0.1)
	if s := reg.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot has %d counters", len(s.Counters))
	}
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Errorf("nil registry WriteMetrics: %v", err)
	}
	var tr *Trace
	tr.Emit("x", nil)
	tr.EmitSnapshot(reg)
	if err := tr.Err(); err != nil {
		t.Errorf("nil trace Err = %v", err)
	}
	stop := StartHeartbeat(&buf, nil, 0)
	stop()
}

func TestCounterGauge(t *testing.T) {
	reg := New()
	c := reg.Counter("sim.trials")
	c.Add(40)
	c.Inc()
	if got := reg.Counter("sim.trials").Load(); got != 41 {
		t.Errorf("counter = %d, want 41", got)
	}
	reg.Gauge("w").Set(2.5)
	if got := reg.Gauge("w").Load(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

func TestHistogram(t *testing.T) {
	reg := New()
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{1, 2, 1, 1} // <=1ms, <=10ms, <=100ms, +Inf
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum < 5.06 || s.Sum > 5.07 {
		t.Errorf("sum = %g", s.Sum)
	}
	// Same name with different bounds returns the existing histogram.
	if h2 := reg.Histogram("lat", []float64{1, 2}); h2.Snapshot().Count != 5 {
		t.Error("re-registration replaced histogram")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 || s.Counts[0] != 8000 {
		t.Errorf("count = %d, bucket0 = %d, want 8000", s.Count, s.Counts[0])
	}
	if s.Sum != 4000 {
		t.Errorf("sum = %g, want 4000", s.Sum)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("c").Add(1)
	b.Counter("c").Add(2)
	b.Counter("only_b").Add(7)
	a.Gauge("g").Set(1)
	b.Gauge("g").Set(2)
	a.Histogram("h", []float64{1}).Observe(0.5)
	b.Histogram("h", []float64{1}).Observe(2)

	s := a.Snapshot()
	if err := s.Merge(b.Snapshot()); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if s.Counters["c"] != 3 || s.Counters["only_b"] != 7 {
		t.Errorf("merged counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 2 {
		t.Errorf("merged gauge = %g, want 2 (last wins)", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merged histogram = %+v", h)
	}

	// Shape mismatches are errors.
	c := New()
	c.Histogram("h", []float64{2}).Observe(1)
	if err := s.Merge(c.Snapshot()); err == nil {
		t.Error("merging mismatched histogram bounds succeeded")
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	reg := New()
	reg.Counter("sim.trials").Add(128)
	reg.Counter("lanes.trials").Add(100)
	reg.Counter("lanes.slots").Add(128)
	reg.Counter("sim.worker.00.nanos").Add(1500000000)
	reg.Histogram("sim.lanes.batch_seconds", []float64{0.001}).Observe(0.0001)
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sim.trials 128",
		"sim.worker.00.nanos 1500000000",
		"sim.lanes.batch_seconds.count 1",
		"sim.lanes.batch_seconds.le.0.001 1",
		"sim.lanes.batch_seconds.le.+Inf 1",
		"lanes.utilization 0.78125",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	reg := New()
	ctx := NewContext(context.Background(), reg)
	if FromContext(ctx) != reg || Active(ctx) != reg {
		t.Error("context registry not retrieved")
	}
	if FromContext(context.Background()) != nil {
		t.Error("empty context returned a registry")
	}
	// Active falls back to the default.
	old := Default()
	defer SetDefault(old)
	SetDefault(reg)
	if Active(context.Background()) != reg {
		t.Error("Active did not fall back to default")
	}
	SetDefault(nil)
	if Active(context.Background()) != nil {
		t.Error("Active returned a registry with telemetry off")
	}
}
