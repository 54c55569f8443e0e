package server

import (
	"bytes"
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
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"revft/internal/chaos"
	"revft/internal/resultcache"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// fakeDriver is a deterministic test experiment: estimates derive purely
// from (spec seed, global point index, chunk) through the real RNG —
// the same seed-stability contract the exp drivers honour — so resumed
// and uninterrupted runs are comparable bit for bit.
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
	if st.ID == "" || st.State.Terminal() || st.Points != 5 {
		t.Fatalf("submit status = %+v", st)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone || st.Error != "" {
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

// TestShardsFieldIgnored: a spec that still carries the retired "shards"
// field is accepted over HTTP, computes a result.json byte-identical to
// the same spec without it, and is an exact cache hit for that spec.
func TestShardsFieldIgnored(t *testing.T) {
	spec := cacheSpec()
	var body map[string]any
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	body["shards"] = 4
	sharded, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(s *Server) (JobStatus, []byte) {
		t.Helper()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(sharded)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST with shards: status %d, body %+v, err %v", resp.StatusCode, st, err)
		}
		st = waitDone(t, s, st.ID)
		data, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st, data
	}

	reg := telemetry.New()
	cached := newCacheServer(t, &resultcache.Store{Dir: t.TempDir(), Metrics: reg}, reg)
	_, want := runToResult(t, cached, spec)
	st, got := submit(cached)
	if st.Cache != CacheHit || st.SpecDigest != spec.Digest() || !bytes.Equal(got, want) {
		t.Fatalf("shards spec on a warm cache: status %+v, want an exact hit on %.12s with the same bytes", st, spec.Digest())
	}
	plain := newTestServer(t, func(c *Config) {
		c.Drivers = map[string]Driver{"value": valueDriver}
	})
	if _, got := submit(plain); !bytes.Equal(got, want) {
		t.Fatalf("shards spec computed:\n%s\nwithout shards:\n%s", got, want)
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

// TestShardPanicRetried: a trial panic is isolated to its job attempt
// and retried under the budget, with the provenance-preserving counter bumped;
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

// TestShardPanicBudgetExhausted: a persistently panicking attempt fails
// its job with the panic provenance in the error — it is never retried
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
			t.Fatal("checkpoint never appeared")
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

	// Restart with the gate open: the journal replays, the job resumes
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
// typed 503, and Drain itself returns promptly once running jobs park.
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

// TestSubmitBodyRefusals: POST /jobs refuses an oversize body with 413
// and a spec followed by trailing bytes with 400, both as invalid_spec,
// and admits nothing.
func TestSubmitBodyRefusals(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"experiment":"fake","gmin":1e-3,"gmax":1e-2,"points":3,"trials":500,"seed":7}`
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"oversize", `{"experiment":"` + strings.Repeat("a", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"oversize trailing whitespace", spec + strings.Repeat(" ", 2<<20), http.StatusRequestEntityTooLarge},
		{"trailing spec", spec + spec, http.StatusBadRequest},
		{"trailing garbage", spec + " x", http.StatusBadRequest},
		{"trailing bracket", spec + "]", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var rej RejectError
			if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || rej.Code != CodeInvalidSpec {
				t.Errorf("POST /jobs = %d %q (%s), want %d %q", resp.StatusCode, rej.Code, rej.Reason, tc.status, CodeInvalidSpec)
			}
		})
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("refused bodies admitted %d jobs", len(jobs))
	}
	// Trailing whitespace alone is still one spec.
	if _, err := decodeSpec(strings.NewReader(spec + "\n\n")); err != nil {
		t.Errorf("spec with trailing newlines refused: %v", err)
	}
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

// TestResumeJournalFromShardedServer: a server that split jobs into point
// shards journaled the spec with shards = 3 and left shard 0's checkpoint,
// which covers global points 0 and 3 under another sweep digest, at the
// path a job's one checkpoint now uses. Replay must not refuse or resume
// that foreign checkpoint: the job starts from point 0 and its result is
// byte-identical to an uninterrupted run.
func TestResumeJournalFromShardedServer(t *testing.T) {
	spec := testSpec()
	spec.Shards = 3
	dir := t.TempDir()
	id := fmt.Sprintf("j%06d-%.8s", 1, spec.Digest())
	var journal bytes.Buffer
	for seq, rec := range []Record{
		{Type: recSubmitted, Job: id, At: time.Now().UTC(), Spec: &spec},
		{Type: recStarted, Job: id, At: time.Now().UTC()},
	} {
		rec.Seq = int64(seq + 1)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(line)
		journal.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	old := sweep.Spec{
		Experiment: spec.Experiment, Grid: spec.Grid(), Points: 2,
		Trials: spec.Trials, Workers: 1, Seed: spec.Seed, Engine: "scalar",
		Extra: fmt.Sprintf("job=%.12s shard=0/3 maxlevel=0 bits=0", spec.Digest()),
	}
	bogus := []stats.Bernoulli{{Trials: spec.Trials, Successes: 1}}
	ck := &sweep.Checkpoint{
		Digest: old.Digest(), Spec: old, SavedAt: time.Now().UTC(),
		Done: []sweep.PointResult{{Index: 0, Ests: bogus}, {Index: 1, Ests: bogus}},
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs", id), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(filepath.Join(dir, "jobs", id, "shard-000.json")); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, func(c *Config) { c.DataDir = dir })
	st := waitDone(t, s, id)
	if st.State != StateDone || !st.Resumed {
		t.Fatalf("replayed job = %+v, want a resumed job done", st)
	}
	got, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	_, want := runToResult(t, newTestServer(t, nil), testSpec())
	if !bytes.Equal(got, want) {
		t.Fatalf("job journaled by a sharding server:\n%s\nuninterrupted:\n%s", got, want)
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
