package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"revft/internal/stats"
	"revft/internal/telemetry"
)

// countingPoint wraps fakePoint with the instrumentation contract the real
// engines follow: it adds its trials to a context-resolved counter. On
// interruption it pollutes the counter first and then fails — exactly the
// partial-point scenario checkpoint metrics must not account for.
func countingPoint(seed uint64, interruptAt int, cancel context.CancelFunc) PointFunc {
	point := fakePoint(seed)
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		if pt == interruptAt && cancel != nil {
			// Simulate an engine that ran part of the point before the
			// cancellation landed: counters move, then the point fails.
			telemetry.Active(ctx).Counter("fake.trials").Add(int64(trials / 2))
			cancel()
			return nil, context.Canceled
		}
		ests, err := point(ctx, pt, start, trials)
		if err != nil {
			return ests, err
		}
		telemetry.Active(ctx).Counter("fake.trials").Add(int64(trials))
		return ests, err
	}
}

func doneTrials(done []PointResult) int64 {
	var n int64
	for _, p := range done {
		if p.Partial {
			continue
		}
		for _, e := range p.Ests {
			n += int64(e.Trials)
		}
	}
	return n
}

// TestCheckpointMetricsConservation is the telemetry half of the resume
// contract: the snapshot embedded in a checkpoint accounts for exactly the
// checkpointed points — an interrupted point's in-flight counters never
// leak in — and a resumed run's final metrics equal an uninterrupted
// run's, because the lost partial work re-runs by seed.
func TestCheckpointMetricsConservation(t *testing.T) {
	spec := testSpec(5)
	ck := filepath.Join(t.TempDir(), "ck.json")

	// Interrupted run: point 2 pollutes the registry then dies.
	ctx, cancel := context.WithCancel(context.Background())
	reg := telemetry.New()
	out, err := (&Runner{
		Spec: spec, Point: countingPoint(42, 2, cancel),
		CheckpointPath: ck, Metrics: reg,
	}).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	loaded, err := Load(ck)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Metrics == nil {
		t.Fatal("checkpoint has no metrics snapshot")
	}
	want := doneTrials(loaded.Done)
	if got := loaded.Metrics.Counters["fake.trials"]; got != want {
		t.Errorf("checkpoint metrics fake.trials = %d, want %d (the partial point's counters leaked in)", got, want)
	}
	if out.Metrics == nil || out.Metrics.Counters["fake.trials"] != want {
		t.Errorf("outcome metrics = %+v, want fake.trials %d", out.Metrics, want)
	}
	// The live registry IS polluted — conservation holds because the
	// boundary snapshot was taken before the interrupted point started.
	if live := reg.Snapshot().Counters["fake.trials"]; live <= want {
		t.Errorf("test premise broken: live registry %d not polluted past boundary %d", live, want)
	}

	// Resume with a fresh registry, as a restarted process would.
	reg2 := telemetry.New()
	res, err := (&Runner{
		Spec: spec, Point: countingPoint(42, -1, nil),
		CheckpointPath: ck, Resume: true, Metrics: reg2,
	}).Run(context.Background())
	if err != nil || !res.Complete {
		t.Fatalf("resume: err=%v complete=%v", err, res.Complete)
	}
	if res.Metrics == nil {
		t.Fatal("resumed outcome has no metrics")
	}
	total := doneTrials(res.Done)
	if got := res.Metrics.Counters["fake.trials"]; got != total {
		t.Errorf("resumed metrics fake.trials = %d, want %d", got, total)
	}

	// Uninterrupted reference: identical final counter.
	reg3 := telemetry.New()
	ref, err := (&Runner{Spec: spec, Point: countingPoint(42, -1, nil), Metrics: reg3}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if refN := reg3.Snapshot().Counters["fake.trials"]; refN != res.Metrics.Counters["fake.trials"] {
		t.Errorf("resumed total %d != uninterrupted total %d", res.Metrics.Counters["fake.trials"], refN)
	}
	_ = ref
}

// A run with no Metrics registry and no baseline must keep checkpoints
// metrics-free (and Outcome.Metrics nil) — no behavior change for callers
// that never opted in.
func TestCheckpointMetricsAbsentWhenDisabled(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	out, err := (&Runner{Spec: testSpec(2), Point: fakePoint(42), CheckpointPath: ck}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics != nil {
		t.Errorf("outcome metrics = %+v, want nil", out.Metrics)
	}
	loaded, err := Load(ck)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Metrics != nil {
		t.Errorf("checkpoint metrics = %+v, want absent", loaded.Metrics)
	}
}

func TestOnPointHook(t *testing.T) {
	spec := testSpec(4)
	ck := filepath.Join(t.TempDir(), "ck.json")
	ctx, cancel := context.WithCancel(context.Background())
	type call struct {
		index   int
		resumed bool
	}
	var calls []call
	hook := func(p PointResult, resumed bool) { calls = append(calls, call{p.Index, resumed}) }
	_, err := (&Runner{
		Spec: spec, Point: countingPoint(42, 2, cancel),
		CheckpointPath: ck, OnPoint: hook,
	}).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(calls) != 2 || calls[0] != (call{0, false}) || calls[1] != (call{1, false}) {
		t.Errorf("interrupted-run calls = %+v, want computed points 0,1", calls)
	}

	calls = nil
	res, err := (&Runner{
		Spec: spec, Point: fakePoint(42),
		CheckpointPath: ck, Resume: true, OnPoint: hook,
	}).Run(context.Background())
	if err != nil || !res.Complete {
		t.Fatalf("resume: err=%v complete=%v", err, res.Complete)
	}
	want := []call{{0, true}, {1, true}, {2, false}, {3, false}}
	if len(calls) != len(want) {
		t.Fatalf("resumed-run calls = %+v, want %+v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}
}

// Every sweep trace event carries the runner's span (sweep-level events)
// or a per-point child span, so a job's trace reconstructs into a tree.
func TestRunnerSpanTagging(t *testing.T) {
	var buf bytes.Buffer
	tr, err := telemetry.NewTrace(&buf, telemetry.Collect("sweep-test"))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2)
	spec.Stop = StopRule{RelTol: 0.9, MinTrials: 100}
	_, err = (&Runner{
		Spec: spec, Point: fakePoint(42),
		Trace: tr, Span: telemetry.Root("j-1/s0"),
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	seen := map[string]bool{}
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		typ, _ := ev["type"].(string)
		if typ == "manifest" {
			continue
		}
		span, _ := ev["span"].(string)
		parent, _ := ev["parent"].(string)
		seen[typ] = true
		switch typ {
		case "spec", "sweep_done":
			if span != "j-1/s0" || parent != "" {
				t.Errorf("%s: span=%q parent=%q, want j-1/s0 root", typ, span, parent)
			}
		case "point_done", "early_stop":
			pt := int(ev["point"].(float64))
			wantSpan := map[int]string{0: "j-1/s0/p0", 1: "j-1/s0/p1"}[pt]
			if span != wantSpan || parent != "j-1/s0" {
				t.Errorf("%s: span=%q parent=%q, want %s under j-1/s0", typ, span, parent, wantSpan)
			}
		}
	}
	for _, typ := range []string{"spec", "point_done", "sweep_done"} {
		if !seen[typ] {
			t.Errorf("trace missing %s event", typ)
		}
	}
}

// withParentVecs rewrites the checkpoint at path the way a format-4
// writer that still kept per-location fault vectors would have: its
// metrics snapshot gains a "vecs" object of labelled counts. Nothing else
// changes, so the digest still matches the spec.
func withParentVecs(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ck map[string]json.RawMessage
	if err := json.Unmarshal(b, &ck); err != nil {
		t.Fatal(err)
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(ck["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	metrics["vecs"] = json.RawMessage(`{"lanes.tally.gadget.MAJ.L1":{"labels":["000:MAJ(0,1,2)","001:MAJ(3,4,5)"],"counts":[7,0]}}`)
	if ck["metrics"], err = json.Marshal(metrics); err != nil {
		t.Fatal(err)
	}
	if b, err = json.Marshal(ck); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeCheckpointWithVecs: a checkpoint whose metrics carry the
// "vecs" key older writers emitted still resumes under the same format
// version. The key is ignored; the results match an uninterrupted run
// byte for byte, and the counter baseline carries into Outcome.Metrics.
func TestResumeCheckpointWithVecs(t *testing.T) {
	spec := testSpec(4)
	ck := filepath.Join(t.TempDir(), "ck.json")
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := (&Runner{
		Spec: spec, Point: countingPoint(42, 2, cancel),
		CheckpointPath: ck, Metrics: telemetry.New(),
	}).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	withParentVecs(t, ck)
	loaded, err := Load(ck)
	if err != nil {
		t.Fatalf("checkpoint with vecs: %v", err)
	}
	baseline := loaded.Metrics.Counters["fake.trials"]
	if baseline == 0 || baseline != doneTrials(loaded.Done) {
		t.Fatalf("baseline fake.trials = %d, want %d > 0", baseline, doneTrials(loaded.Done))
	}

	res, err := (&Runner{
		Spec: spec, Point: countingPoint(42, -1, nil),
		CheckpointPath: ck, Resume: true, Metrics: telemetry.New(),
	}).Run(context.Background())
	if err != nil || !res.Complete {
		t.Fatalf("resume: err=%v complete=%v", err, res.Complete)
	}
	if res.Resumed != len(loaded.Done) {
		t.Errorf("resumed %d points, want %d", res.Resumed, len(loaded.Done))
	}
	ref, err := (&Runner{Spec: spec, Point: countingPoint(42, -1, nil)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res.Done)
	want, _ := json.Marshal(ref.Done)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed results differ from an uninterrupted run:\n got %s\nwant %s", got, want)
	}
	if res.Metrics == nil {
		t.Fatal("resumed outcome has no metrics")
	}
	if n := res.Metrics.Counters["fake.trials"]; n != doneTrials(res.Done) || n <= baseline {
		t.Errorf("outcome fake.trials = %d, want %d (baseline %d plus the rest)", n, doneTrials(res.Done), baseline)
	}
	saved, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(saved, []byte(`"vecs"`)) {
		t.Error("re-saved checkpoint still carries the vecs key")
	}
}
