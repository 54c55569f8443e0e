package telemetry

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func fullSnapshot() Snapshot {
	return Snapshot{
		UptimeSeconds: 2.5,
		Counters:      map[string]int64{"sim.trials": 100, "sweep.points": 3},
		Gauges:        map[string]float64{"run.progress": 0.5},
		Histograms: map[string]HistogramSnapshot{
			"sim.batch_seconds": {
				Bounds: []float64{0.1, 1},
				Counts: []int64{4, 2, 1},
				Count:  7,
				Sum:    3.25,
			},
		},
	}
}

func TestSnapshotMergeEmptyIntoFull(t *testing.T) {
	s := fullSnapshot()
	want := fullSnapshot()
	if err := s.Merge(Snapshot{}); err != nil {
		t.Fatalf("merge empty into full: %v", err)
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("merge with empty changed snapshot:\n got %+v\nwant %+v", s, want)
	}
}

func TestSnapshotMergeFullIntoEmpty(t *testing.T) {
	var s Snapshot
	if err := s.Merge(fullSnapshot()); err != nil {
		t.Fatalf("merge full into empty: %v", err)
	}
	want := fullSnapshot()
	if !reflect.DeepEqual(s.Counters, want.Counters) {
		t.Errorf("counters = %v, want %v", s.Counters, want.Counters)
	}
	if !reflect.DeepEqual(s.Gauges, want.Gauges) {
		t.Errorf("gauges = %v, want %v", s.Gauges, want.Gauges)
	}
	if !reflect.DeepEqual(s.Histograms, want.Histograms) {
		t.Errorf("histograms = %v, want %v", s.Histograms, want.Histograms)
	}
	if s.UptimeSeconds != want.UptimeSeconds {
		t.Errorf("uptime = %g, want %g", s.UptimeSeconds, want.UptimeSeconds)
	}
}

func TestSnapshotMergeDoubles(t *testing.T) {
	s := fullSnapshot()
	if err := s.Merge(fullSnapshot()); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got := s.Counters["sim.trials"]; got != 200 {
		t.Errorf("sim.trials = %d, want 200", got)
	}
	h := s.Histograms["sim.batch_seconds"]
	if h.Count != 14 || h.Sum != 6.5 {
		t.Errorf("histogram count/sum = %d/%g, want 14/6.5", h.Count, h.Sum)
	}
}

// A bounds mismatch must return the typed *MergeError and leave the
// receiver bit-for-bit unchanged — even when other parts of the incoming
// snapshot (counters, a compatible histogram) could have merged cleanly.
func TestSnapshotMergeBoundsMismatchNoPartialMutation(t *testing.T) {
	s := fullSnapshot()
	want := fullSnapshot()
	bad := Snapshot{
		Counters: map[string]int64{"sim.trials": 999},
		Histograms: map[string]HistogramSnapshot{
			"sim.batch_seconds": {Bounds: []float64{0.5, 2}, Counts: []int64{1, 1, 1}, Count: 3, Sum: 1},
		},
	}
	err := s.Merge(bad)
	if err == nil {
		t.Fatal("merge with mismatched bounds: want error, got nil")
	}
	var merr *MergeError
	if !errors.As(err, &merr) {
		t.Fatalf("error type = %T (%v), want *MergeError", err, err)
	}
	if merr.Kind != "histogram" || merr.Metric != "sim.batch_seconds" {
		t.Errorf("MergeError = %+v, want Kind=histogram Metric=sim.batch_seconds", merr)
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("snapshot mutated by failed merge:\n got %+v\nwant %+v", s, want)
	}
}

func TestSnapshotMergeBoundsCountMismatch(t *testing.T) {
	s := fullSnapshot()
	want := fullSnapshot()
	bad := Snapshot{
		Histograms: map[string]HistogramSnapshot{
			"sim.batch_seconds": {Bounds: []float64{0.1}, Counts: []int64{1, 1}, Count: 2, Sum: 0.1},
		},
	}
	var merr *MergeError
	if err := s.Merge(bad); !errors.As(err, &merr) {
		t.Fatalf("error = %v, want *MergeError", err)
	}
	if !reflect.DeepEqual(s, want) {
		t.Error("snapshot mutated by failed merge")
	}
}

func TestHistogramSnapshotMergeUnchangedOnMismatch(t *testing.T) {
	h := HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{2, 3}, Count: 5, Sum: 4}
	want := HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{2, 3}, Count: 5, Sum: 4}
	o := HistogramSnapshot{Bounds: []float64{2}, Counts: []int64{1, 1}, Count: 2, Sum: 3}
	var merr *MergeError
	if err := h.Merge(o); !errors.As(err, &merr) {
		t.Fatalf("error = %v, want *MergeError", err)
	}
	if !reflect.DeepEqual(h, want) {
		t.Errorf("histogram mutated by failed merge: got %+v, want %+v", h, want)
	}
}

// Merging into an empty histogram snapshot must copy, not alias: later
// merges into the result must never mutate the source's slices.
func TestHistogramSnapshotMergeEmptyCopiesStorage(t *testing.T) {
	src := HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{2, 3}, Count: 5, Sum: 4}
	var dst HistogramSnapshot
	if err := dst.Merge(src); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := dst.Merge(src); err != nil {
		t.Fatalf("second merge: %v", err)
	}
	if src.Counts[0] != 2 || src.Counts[1] != 3 {
		t.Errorf("source counts mutated: %v", src.Counts)
	}
	if dst.Counts[0] != 4 || dst.Counts[1] != 6 || dst.Count != 10 {
		t.Errorf("dst = %+v, want counts [4 6] count 10", dst)
	}
}

func TestSnapshotClone(t *testing.T) {
	s := fullSnapshot()
	c := s.Clone()
	if !reflect.DeepEqual(c, s) {
		t.Fatalf("clone differs: got %+v, want %+v", c, s)
	}
	c.Counters["sim.trials"] = 1
	c.Histograms["sim.batch_seconds"].Counts[0] = 99
	orig := fullSnapshot()
	if !reflect.DeepEqual(s, orig) {
		t.Errorf("mutating clone changed original:\n got %+v\nwant %+v", s, orig)
	}
}

func TestSnapshotWriteTextMatchesRegistryWriteMetrics(t *testing.T) {
	reg := New()
	reg.Counter("a.count").Add(3)
	reg.Gauge("b.gauge").Set(1.5)
	reg.Histogram("c.hist", []float64{1, 10}).Observe(0.5)
	var fromReg, fromSnap strings.Builder
	if err := reg.WriteMetrics(&fromReg); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteText(&fromSnap); err != nil {
		t.Fatal(err)
	}
	// Strip the uptime header line, which moves between calls.
	body := func(s string) string {
		_, rest, _ := strings.Cut(s, "\n")
		return rest
	}
	if body(fromReg.String()) != body(fromSnap.String()) {
		t.Errorf("WriteMetrics and WriteText disagree:\n%q\nvs\n%q", fromReg.String(), fromSnap.String())
	}
}
