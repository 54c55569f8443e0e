package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// countingDriver wraps fakeDriver with the instrumentation contract the
// real engines follow: each completed point adds its trials to the
// context-resolved registry — the counter the conservation invariant is
// stated over.
func countingDriver(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
	inner, n, err := fakeDriver(spec, grid)
	if err != nil {
		return nil, 0, err
	}
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		ests, perr := inner(ctx, pt, start, trials)
		if perr == nil {
			telemetry.Active(ctx).Counter("fake.trials").Add(int64(trials))
		}
		return ests, perr
	}, n, nil
}

func resultTrials(t *testing.T, data []byte) int64 {
	t.Helper()
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result.json: %v", err)
	}
	var n int64
	for _, p := range res.Points {
		for _, e := range p.Ests {
			n += int64(e.Trials)
		}
	}
	return n
}

// TestJobMetricsConservation: a done job's metrics snapshot
// accounts for exactly the trials its result reports — the per-job
// conservation invariant, here on the uninterrupted path.
func TestJobMetricsConservation(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Drivers["counting"] = countingDriver
	})
	spec := testSpec()
	spec.Experiment = "counting"
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)

	data, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := resultTrials(t, data)
	snap, err := s.JobMetrics(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["fake.trials"]; got != want {
		t.Errorf("merged fake.trials = %d, want %d (result trials)", got, want)
	}

	// The server-wide aggregate view conserves the job's counters too.
	if got := s.MetricsSnapshot().Counters["fake.trials"]; got != want {
		t.Errorf("server-wide fake.trials = %d, want %d", got, want)
	}

	if _, err := s.JobMetrics("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("JobMetrics(nope) = %v, want ErrNotFound", err)
	}
	if _, err := s.Progress("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Progress(nope) = %v, want ErrNotFound", err)
	}
}

// TestJobMetricsConservationAcrossRestart is the invariant under the
// kill-and-restart the service is built for: drain mid-job, restart from
// the journal, finish — the merged per-job trial counters still equal the
// final result's trial counts exactly, because checkpoints persist
// their point-boundary snapshots alongside the results.
func TestJobMetricsConservationAcrossRestart(t *testing.T) {
	spec := testSpec()
	spec.Experiment = "gated"

	mkDrivers := func(gate chan struct{}) map[string]Driver {
		gated := func(sp JobSpec, grid []float64) (sweep.PointFunc, int, error) {
			inner, n, err := countingDriver(sp, grid)
			if err != nil {
				return nil, 0, err
			}
			return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
				if pt >= 1 {
					select {
					case <-gate:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return inner(ctx, pt, start, trials)
			}, n, nil
		}
		return map[string]Driver{"gated": gated}
	}

	dir := t.TempDir()
	gate := make(chan struct{})
	a, err := New(Config{DataDir: dir, Drivers: mkDrivers(gate), PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(dir, "jobs", st.ID, "shard-000.json")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, serr := os.Stat(ck); serr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Mid-run progress view: point 0 is done, the job is live.
	p, err := a.Progress(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.PointsDone < 1 || p.TrialsDone < int64(spec.Trials) {
		t.Errorf("mid-run progress = points %d trials %d, want >= 1 point / %d trials",
			p.PointsDone, p.TrialsDone, spec.Trials)
	}
	if p.State.Terminal() {
		t.Errorf("mid-run progress state = %s, want non-terminal", p.State)
	}
	// And the mid-run merged metrics already cover the boundary points.
	if snap, merr := a.JobMetrics(st.ID); merr != nil || snap.Counters["fake.trials"] < int64(spec.Trials) {
		t.Errorf("mid-run metrics = %v / err %v", snap.Counters, merr)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := a.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	dcancel()

	// Restart with the gate open; the job resumes from its checkpoint and
	// the resumed process starts from a fresh in-memory registry.
	open := make(chan struct{})
	close(open)
	b, err := New(Config{DataDir: dir, Drivers: mkDrivers(open), PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitDone(t, b, st.ID)

	data, err := b.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := resultTrials(t, data)
	snap, err := b.JobMetrics(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["fake.trials"]; got != want {
		t.Errorf("post-restart merged fake.trials = %d, want %d (conservation broke across the restart)", got, want)
	}

	// The final progress view agrees with the result as well.
	fp, err := b.Progress(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fp.TrialsDone != want || fp.PointsDone != spec.Points {
		t.Errorf("final progress = trials %d points %d, want %d / %d", fp.TrialsDone, fp.PointsDone, want, spec.Points)
	}
	if fp.State != StateDone || len(fp.Trajectory) != fp.PointsDone || fp.PointWall == nil {
		t.Errorf("final progress = state %s, %d trajectory entries for %d points, point wall %v",
			fp.State, len(fp.Trajectory), fp.PointsDone, fp.PointWall)
	}
}

// TestObservabilityHTTP drives the new endpoints over HTTP: content types,
// JSON and text renderings, and 404 (not 200-with-empty-body) for unknown
// job IDs.
func TestObservabilityHTTP(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Metrics = telemetry.New()
		c.Drivers["counting"] = countingDriver
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec()
	spec.Experiment = "counting"
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, gerr := ts.Client().Get(ts.URL + path)
		if gerr != nil {
			t.Fatal(gerr)
		}
		defer resp.Body.Close()
		data, cerr := io.ReadAll(resp.Body)
		if cerr != nil {
			t.Fatal(cerr)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(data)
	}

	code, ctype, body := get("/jobs/" + st.ID + "/metrics")
	if code != 200 || ctype != "application/json" {
		t.Errorf("metrics: code %d type %q", code, ctype)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	want := int64(spec.Points) * int64(spec.Trials)
	if snap.Counters["fake.trials"] != want {
		t.Errorf("metrics fake.trials = %d, want %d", snap.Counters["fake.trials"], want)
	}

	code, ctype, body = get("/jobs/" + st.ID + "/metrics?format=text")
	if code != 200 || ctype != "text/plain; charset=utf-8" {
		t.Errorf("metrics text: code %d type %q", code, ctype)
	}
	if !strings.Contains(body, fmt.Sprintf("fake.trials %d", want)) {
		t.Errorf("text exposition missing fake.trials:\n%s", body)
	}

	code, ctype, body = get("/jobs/" + st.ID + "/progress")
	if code != 200 || ctype != "application/json" {
		t.Errorf("progress: code %d type %q", code, ctype)
	}
	var prog JobProgress
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("progress JSON: %v", err)
	}
	if prog.ID != st.ID || prog.State != StateDone || prog.TrialsDone != want || prog.Attempts != 1 || len(prog.Trajectory) != spec.Points {
		t.Errorf("progress = %+v", prog)
	}

	// The server-wide scrape carries both server counters and the merged
	// per-job series, with an explicit content type.
	code, ctype, body = get("/metrics")
	if code != 200 || ctype != "text/plain; charset=utf-8" {
		t.Errorf("/metrics: code %d type %q", code, ctype)
	}
	if !strings.Contains(body, "server.jobs_done") || !strings.Contains(body, "fake.trials") {
		t.Errorf("/metrics missing series:\n%s", body)
	}

	for _, path := range []string{"/jobs/nope/metrics", "/jobs/nope/progress"} {
		if code, _, _ := get(path); code != 404 {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestJobTraceSpans: every event in a finished job's trace that carries a
// span must be well-formed — the span is rooted at the job, the parent is
// its path prefix — so the JSONL reconstructs into one causal tree.
func TestJobTraceSpans(t *testing.T) {
	s := newTestServer(t, nil)
	spec := testSpec()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	path, err := s.TracePath(st.ID)
	if err != nil || path == "" {
		t.Fatalf("TracePath = %q, %v", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spanned := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		span, ok := ev["span"].(string)
		if !ok {
			continue
		}
		spanned++
		if span != st.ID && !strings.HasPrefix(span, st.ID+"/") {
			t.Errorf("event %v: span %q not rooted at job %s", ev["type"], span, st.ID)
		}
		if parent, ok := ev["parent"].(string); ok {
			if !strings.HasPrefix(span, parent+"/") {
				t.Errorf("event %v: span %q not a child of parent %q", ev["type"], span, parent)
			}
		}
	}
	if spanned == 0 {
		t.Error("trace has no span-tagged events")
	}
}

// Tenant strings are validated at admission and sanitized + cardinality-
// bounded before minting metric names, so a tenant-name scan cannot grow
// the registry without bound.
func TestTenantMetricCardinalityBounded(t *testing.T) {
	reg := telemetry.New()
	s := newTestServer(t, func(c *Config) { c.Metrics = reg })

	// A hostile tenant name is rejected as invalid_spec...
	spec := testSpec()
	spec.Tenant = "evil tenant\nwith{structure}"
	var rej *RejectError
	if _, err := s.Submit(spec); !errors.As(err, &rej) || rej.Code != CodeInvalidSpec {
		t.Fatalf("Submit(bad tenant) = %v, want invalid_spec rejection", err)
	}

	// ...and a scan of distinct names mints at most maxTenantLabels
	// tenant series before collapsing into "overflow".
	for i := 0; i < 3*maxTenantLabels; i++ {
		spec.Tenant = fmt.Sprintf("scanner %d!", i)
		if _, err := s.Submit(spec); err == nil {
			t.Fatalf("Submit(%q) unexpectedly admitted", spec.Tenant)
		}
	}
	tenantSeries := map[string]bool{}
	for name := range reg.Snapshot().Counters {
		if !strings.HasPrefix(name, "server.tenant.") {
			continue
		}
		rest := strings.TrimPrefix(name, "server.tenant.")
		tenant := rest[:strings.LastIndex(rest, ".jobs_")]
		tenantSeries[tenant] = true
		if strings.ContainsAny(tenant, " \n{}") {
			t.Errorf("unsanitized tenant label in metric name %q", name)
		}
	}
	if len(tenantSeries) > maxTenantLabels+1 {
		t.Errorf("tenant label cardinality %d exceeds bound %d", len(tenantSeries), maxTenantLabels+1)
	}
	if !tenantSeries["overflow"] {
		t.Error("overflow tenant label never minted during the scan")
	}
}

func TestSanitizeTenant(t *testing.T) {
	cases := map[string]string{
		"":                       "default",
		"team-a":                 "team-a",
		"has space":              "has_space",
		"semi;colon{x}":          "semi_colon_x_",
		strings.Repeat("a", 100): strings.Repeat("a", 64),
	}
	for in, want := range cases {
		if got := sanitizeTenant(in); got != want {
			t.Errorf("sanitizeTenant(%q) = %q, want %q", in, got, want)
		}
	}
}
