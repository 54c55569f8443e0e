package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"revft/internal/chaos"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// fakeDriver is a deterministic test experiment: estimates derive purely
// from (spec seed, global point index, chunk) through the real RNG —
// the same seed-stability contract the exp drivers honour — so sharded,
// resumed, and uninterrupted runs are comparable bit for bit.
func fakeDriver(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
	seed := spec.Seed
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := sim.MonteCarloCtx(ctx, start, trials, 1, seed+uint64(pt)*1009, func(r *rng.RNG) bool { return r.Bool(0.1) })
		return []stats.Bernoulli{res.Bernoulli}, err
	}, spec.Points, nil
}

func testSpec() JobSpec {
	return JobSpec{
		Experiment: "fake", GMin: 1e-3, GMax: 1e-2,
		Points: 5, Trials: 2000, Seed: 42, Shards: 2,
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		DataDir:     t.TempDir(),
		Drivers:     map[string]Driver{"fake": fakeDriver},
		PoolWorkers: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s) = %v (state %s, error %q)", id, err, st.State, st.Error)
	}
	return st
}

func TestJobLifecycle(t *testing.T) {
	reg := telemetry.New()
	s := newTestServer(t, func(c *Config) { c.Metrics = reg })
	spec := testSpec()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State.Terminal() || st.Shards != 2 || st.Points != 5 {
		t.Fatalf("submit status = %+v", st)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone || st.ShardsDone != 2 || st.Error != "" {
		t.Fatalf("final status = %+v", st)
	}

	data, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result.json: %v", err)
	}
	if res.Experiment != "fake" || res.SpecDigest != spec.Digest() || len(res.Points) != 5 || len(res.Grid) != 5 {
		t.Fatalf("result = %+v", res)
	}
	for i, p := range res.Points {
		if p.Index != i || len(p.Ests) != 1 || p.Ests[0].Trials != spec.Trials {
			t.Errorf("point %d = %+v", i, p)
		}
	}

	snap := reg.Snapshot()
	if snap.Counters["server.jobs_submitted"] != 1 || snap.Counters["server.jobs_done"] != 1 {
		t.Errorf("counters = %v", snap.Counters)
	}

	// Unknown IDs and premature fetches map to the sentinel errors.
	if _, err := s.Job("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Job(nope) = %v", err)
	}
	if _, err := s.Result("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result(nope) = %v", err)
	}
}

// TestShardingBitIdentical is the seed-stability contract: any shard
// count produces byte-for-byte the same point estimates.
func TestShardingBitIdentical(t *testing.T) {
	results := make([][]ResultPoint, 0, 3)
	for _, shards := range []int{1, 2, 5} {
		s := newTestServer(t, nil)
		spec := testSpec()
		spec.Shards = shards
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st = waitDone(t, s, st.ID)
		if st.State != StateDone {
			t.Fatalf("shards=%d: state %s (%s)", shards, st.State, st.Error)
		}
		data, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		results = append(results, res.Points)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("shard count changed the results:\n1 shard:  %+v\nvariant %d: %+v", results[0], i, results[i])
		}
	}
}

// blockingDriver parks every point on gate (or the context), so tests can
// hold jobs in the running state deliberately.
func blockingDriver(gate chan struct{}) Driver {
	return func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
		inner, n, err := fakeDriver(spec, grid)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner(ctx, pt, start, trials)
		}, n, nil
	}
}

func rejectCode(t *testing.T, err error, code string, status int) {
	t.Helper()
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v (%T), want *RejectError{%s}", err, err, code)
	}
	if rej.Code != code || rej.Status != status {
		t.Fatalf("rejection = %+v, want code %s status %d", rej, code, status)
	}
}

// TestAdmissionRejectionsTyped: every refusal is a typed, prompt
// *RejectError — a full queue or spent quota never stalls the caller.
func TestAdmissionRejectionsTyped(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := newTestServer(t, func(c *Config) {
		c.Drivers["blocking"] = blockingDriver(gate)
		c.MaxActiveJobs = 2
		c.MaxJobsPerTenant = 1
		c.MaxTrialsPerTenant = 50_000
	})

	bad := testSpec()
	bad.Points = 0
	_, err := s.Submit(bad)
	rejectCode(t, err, CodeInvalidSpec, 400)

	unknown := testSpec()
	unknown.Experiment = "nonsense"
	_, err = s.Submit(unknown)
	rejectCode(t, err, CodeUnknownExperiment, 400)

	// Occupy tenant A's job quota with a parked job.
	blocked := testSpec()
	blocked.Experiment = "blocking"
	blocked.Tenant = "alice"
	if _, err := s.Submit(blocked); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = s.Submit(blocked) // alice again: job quota
	rejectCode(t, err, CodeTenantJobQuota, 429)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("quota rejection took %v; it must never wait on the queue", elapsed)
	}

	huge := testSpec()
	huge.Tenant = "bob"
	huge.Trials = 20_000 // 5 points × 20k = 100k > 50k budget
	_, err = s.Submit(huge)
	rejectCode(t, err, CodeTenantTrialQuota, 429)

	// A second active job (bob, within quota) fills MaxActiveJobs.
	second := testSpec()
	second.Experiment = "blocking"
	second.Tenant = "bob"
	if _, err := s.Submit(second); err != nil {
		t.Fatal(err)
	}
	third := testSpec()
	third.Tenant = "carol"
	_, err = s.Submit(third)
	rejectCode(t, err, CodeQueueFull, 429)
}

// TestTenantQuotaReleasedOnCompletion: quota is in-flight usage, not a
// lifetime cap.
func TestTenantQuotaReleasedOnCompletion(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxJobsPerTenant = 1 })
	spec := testSpec()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	spec.Seed = 43 // a distinct job
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("quota not released after completion: %v", err)
	}
}

func TestCancelIsJournaled(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	dir := t.TempDir()
	drivers := map[string]Driver{"fake": fakeDriver, "blocking": blockingDriver(gate)}
	s, err := New(Config{DataDir: dir, Drivers: drivers, PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Experiment = "blocking"
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := s.Cancel(st.ID)
	if err != nil || cst.State != StateCancelled {
		t.Fatalf("Cancel = %+v, %v", cst, err)
	}
	// Idempotent on terminal jobs.
	if cst2, err := s.Cancel(st.ID); err != nil || cst2.State != StateCancelled {
		t.Fatalf("second Cancel = %+v, %v", cst2, err)
	}
	waitDone(t, s, st.ID)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The cancellation survives restart: replay must not resurrect it.
	s2, err := New(Config{DataDir: dir, Drivers: drivers, PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Job(st.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("after restart: %+v, %v", got, err)
	}
}

func TestJobDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := newTestServer(t, func(c *Config) {
		c.Drivers["blocking"] = blockingDriver(gate)
	})
	spec := testSpec()
	spec.Experiment = "blocking"
	spec.TimeoutSeconds = 0.05
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadlined job = %+v", st)
	}
}

// TestShardPanicRetried: a trial panic is isolated to its shard and
// retried under the budget, with the provenance-preserving counter bumped;
// the job still completes with the deterministic results.
func TestShardPanicRetried(t *testing.T) {
	reg := telemetry.New()
	var calls atomic.Int32
	panicOnce := func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
		inner, n, err := fakeDriver(spec, grid)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
			if calls.Add(1) == 1 {
				return nil, &sim.TrialPanicError{Worker: 2, Seed: spec.Seed, Value: "injected boom"}
			}
			return inner(ctx, pt, start, trials)
		}, n, nil
	}
	s := newTestServer(t, func(c *Config) {
		c.Metrics = reg
		c.Drivers["panicky"] = panicOnce
		c.ShardRetry = chaos.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}
	})
	spec := testSpec()
	spec.Experiment = "panicky"
	spec.Shards = 1
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("job after panic retry = %+v", st)
	}
	if got := reg.Snapshot().Counters["server.shard_retries"]; got != 1 {
		t.Errorf("server.shard_retries = %d, want 1", got)
	}
}

// TestShardPanicBudgetExhausted: a persistently panicking shard fails its
// job with the panic provenance in the error — it is never retried
// forever and never takes down other jobs.
func TestShardPanicBudgetExhausted(t *testing.T) {
	alwaysPanic := func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
		return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
			return nil, &sim.TrialPanicError{Worker: 1, Seed: spec.Seed, Value: "always"}
		}, spec.Points, nil
	}
	s := newTestServer(t, func(c *Config) {
		c.Drivers["panicky"] = alwaysPanic
		c.ShardRetry = chaos.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 1}
	})
	spec := testSpec()
	spec.Experiment = "panicky"
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "trial panic") {
		t.Fatalf("job = %+v, want failed with panic provenance", st)
	}

	// A healthy job on the same server still runs to completion.
	ok, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, s, ok.ID); got.State != StateDone {
		t.Fatalf("healthy job after panicky one = %+v", got)
	}
}

// TestDrainParksAndResumesBitIdentical is the graceful-drain contract:
// drain exits cleanly mid-job, leaves no temp litter and no terminal
// record, and a restarted server finishes the job bit-identically to an
// uninterrupted reference run.
func TestDrainParksAndResumesBitIdentical(t *testing.T) {
	spec := testSpec()
	spec.Experiment = "gated"
	spec.Shards = 1

	mkDrivers := func(gate chan struct{}) map[string]Driver {
		gated := func(sp JobSpec, grid []float64) (sweep.PointFunc, int, error) {
			inner, n, err := fakeDriver(sp, grid)
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

	// Reference: gate open from the start, uninterrupted run.
	openGate := make(chan struct{})
	close(openGate)
	ref, err := New(Config{DataDir: t.TempDir(), Drivers: mkDrivers(openGate), PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rst, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, rst.ID)
	want, err := ref.Result(rst.ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = ref.Close()

	// Interrupted run: point 0 completes, point 1 parks on the gate.
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
			t.Fatal("shard checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer dcancel()
	if err := a.Drain(dctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if got, _ := a.Job(st.ID); got.State.Terminal() {
		t.Fatalf("drained job reached terminal state %s; it must stay resumable", got.State)
	}
	// No temp litter anywhere under the data dir.
	ferr := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("temp litter after drain: %s", path)
		}
		return nil
	})
	if ferr != nil {
		t.Fatal(ferr)
	}

	// Restart with the gate open: the journal replays, the shard resumes
	// from its checkpoint, and the result matches the reference bytes.
	close(gate)
	b, err := New(Config{DataDir: dir, Drivers: mkDrivers(gate), PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Job(st.ID)
	if err != nil || !got.Resumed {
		t.Fatalf("after restart: %+v, %v", got, err)
	}
	fin := waitDone(t, b, st.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed job = %+v", fin)
	}
	data, err := b.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Errorf("drain-resumed result differs from uninterrupted run:\n got: %s\nwant: %s", data, want)
	}
}

// TestDrainRejectsNewSubmissions: a draining server answers with the
// typed 503, and Drain itself returns promptly once shards park.
func TestDrainRejectsNewSubmissions(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := newTestServer(t, func(c *Config) {
		c.Drivers["blocking"] = blockingDriver(gate)
	})
	spec := testSpec()
	spec.Experiment = "blocking"
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	_, err := s.Submit(testSpec())
	rejectCode(t, err, CodeDraining, 503)
}

// TestHTTPAPI drives the submit → poll → result lifecycle over the wire,
// including the typed rejection mapping.
func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Metrics = telemetry.New() })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	resp, body := post(`{"experiment":"fake","gmin":1e-3,"gmax":1e-2,"points":3,"trials":500,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)

	get := func(path string, want int) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, want, b)
		}
		return b
	}

	var polled JobStatus
	if err := json.Unmarshal(get("/jobs/"+st.ID, 200), &polled); err != nil {
		t.Fatal(err)
	}
	if polled.State != StateDone {
		t.Fatalf("polled state = %s", polled.State)
	}
	var res Result
	if err := json.Unmarshal(get("/jobs/"+st.ID+"/result", 200), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("result points = %d", len(res.Points))
	}
	get("/jobs/absent", 404)
	get("/healthz", 200)
	if m := get("/metrics", 200); !strings.Contains(string(m), "server.jobs_done") {
		t.Fatalf("metrics missing server counters: %s", m)
	}

	resp, body = post(`{"experiment":"nope","gmin":1e-3,"gmax":1e-2,"points":3,"trials":500}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), CodeUnknownExperiment) {
		t.Fatalf("unknown experiment over HTTP = %d: %s", resp.StatusCode, body)
	}
}

// TestSubmitValidation spot-checks the typed invalid_spec rejections.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []func(*JobSpec){
		func(sp *JobSpec) { sp.Points = 0 },
		func(sp *JobSpec) { sp.Trials = 0 },
		func(sp *JobSpec) { sp.GMin = 0 },
		func(sp *JobSpec) { sp.GMin = 2e-2 }, // gmin > gmax
		func(sp *JobSpec) { sp.TimeoutSeconds = -1 },
		func(sp *JobSpec) { sp.ZeroScale = 1e-6 }, // zeroscale without reltol
	}
	for i, mut := range cases {
		sp := testSpec()
		mut(&sp)
		_, err := s.Submit(sp)
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Code != CodeInvalidSpec {
			t.Errorf("case %d: err = %v, want invalid_spec", i, err)
		}
	}
}

func TestShardPointsPartition(t *testing.T) {
	for _, tc := range []struct{ points, shards int }{
		{5, 1}, {5, 2}, {5, 5}, {7, 3}, {1, 1}, {12, 4},
	} {
		total := 0
		for k := 0; k < tc.shards; k++ {
			total += shardPoints(tc.points, tc.shards, k)
		}
		if total != tc.points {
			t.Errorf("points=%d shards=%d: partition covers %d", tc.points, tc.shards, total)
		}
		// Global indices k + j*S must tile 0..points-1 exactly.
		seen := make(map[int]bool)
		for k := 0; k < tc.shards; k++ {
			for j := 0; j < shardPoints(tc.points, tc.shards, k); j++ {
				g := k + j*tc.shards
				if g >= tc.points || seen[g] {
					t.Fatalf("points=%d shards=%d: bad global index %d", tc.points, tc.shards, g)
				}
				seen[g] = true
			}
		}
	}
}

func TestRejectErrorMessage(t *testing.T) {
	err := reject(CodeQueueFull, 429, "queue holds %d", 64)
	if !strings.Contains(err.Error(), CodeQueueFull) || !strings.Contains(err.Error(), "64") {
		t.Errorf("Error() = %q", err.Error())
	}
	var rej *RejectError
	if !errors.As(fmt.Errorf("wrapped: %w", err), &rej) {
		t.Error("RejectError lost through wrapping")
	}
}
