package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"revft/internal/rng"
	"revft/internal/server"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/sweep"
)

func testSpec() server.JobSpec {
	return server.JobSpec{
		Experiment: "fake", GMin: 1e-3, GMax: 1e-2,
		Points: 4, Trials: 500, Seed: 7, Shards: 2,
	}
}

func fastClient(base string) *Client {
	return &Client{
		BaseURL:      base,
		BaseDelay:    time.Millisecond,
		MaxDelay:     5 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
		Seed:         1,
	}
}

// fakeAPI is a minimal stateful stand-in for the server's HTTP API:
// a digest-indexed job table plus programmable POST behaviour.
type fakeAPI struct {
	mu    sync.Mutex
	jobs  []server.JobStatus
	posts int
	// refuse, while > 0, makes POST /jobs return the given status
	// (with optional Retry-After), decrementing per request.
	refuse     int
	refuseCode int
	retryAfter string
}

func (f *fakeAPI) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		out := []server.JobStatus{}
		d := r.URL.Query().Get("digest")
		for _, st := range f.jobs {
			if d == "" || st.SpecDigest == d {
				out = append(out, st)
			}
		}
		writeJSONTest(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.posts++
		if f.refuse > 0 {
			f.refuse--
			if f.retryAfter != "" {
				w.Header().Set("Retry-After", f.retryAfter)
			}
			writeJSONTest(w, f.refuseCode, map[string]string{"error": "queue_full", "reason": "synthetic overload"})
			return
		}
		var spec server.JobSpec
		_ = json.NewDecoder(r.Body).Decode(&spec)
		st := server.JobStatus{
			ID: "job-1", State: server.StateQueued,
			SpecDigest: spec.Digest(), Priority: spec.Priority,
		}
		f.jobs = append(f.jobs, st)
		writeJSONTest(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, st := range f.jobs {
			if st.ID == r.PathValue("id") {
				writeJSONTest(w, http.StatusOK, st)
				return
			}
		}
		writeJSONTest(w, http.StatusNotFound, map[string]string{"error": "not_found", "reason": "no such job"})
	})
	return mux
}

func writeJSONTest(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Submit must survive transient 503s: the refusals are retried with
// backoff and the eventual acceptance is returned.
func TestSubmitRetriesTransientRefusals(t *testing.T) {
	api := &fakeAPI{refuse: 2, refuseCode: http.StatusServiceUnavailable}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	st, err := fastClient(ts.URL).Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Fatalf("submitted job = %+v", st)
	}
	if api.posts != 3 {
		t.Fatalf("POST attempts = %d, want 3 (2 refusals + 1 success)", api.posts)
	}
}

// A terminal 400 must surface immediately as a typed APIError, with no
// retries burned on a spec that can never be accepted.
func TestTerminalRefusalNotRetried(t *testing.T) {
	var posts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts++
			writeJSONTest(w, http.StatusBadRequest, map[string]string{"error": "invalid_spec", "reason": "trials 0: need at least 1"})
			return
		}
		writeJSONTest(w, http.StatusOK, []server.JobStatus{})
	}))
	defer ts.Close()

	_, err := fastClient(ts.URL).Submit(context.Background(), testSpec())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_spec" || apiErr.Retryable() {
		t.Fatalf("apiErr = %+v", apiErr)
	}
	if posts != 1 {
		t.Fatalf("POST attempts = %d, want exactly 1", posts)
	}
}

// The server's Retry-After must floor the backoff: with millisecond
// client delays and a 1s hint, the retry cannot land early.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	api := &fakeAPI{refuse: 1, refuseCode: http.StatusTooManyRequests, retryAfter: "1"}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	start := time.Now()
	if _, err := fastClient(ts.URL).Submit(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < time.Second {
		t.Fatalf("retry landed after %v, want >= 1s (Retry-After floor)", el)
	}
	if api.posts != 2 {
		t.Fatalf("POST attempts = %d, want 2", api.posts)
	}
}

// A client that crashes after submitting and restarts with the same spec
// must adopt the original job via the digest lookup, not duplicate it.
func TestCrashedClientAdoptsOriginalJob(t *testing.T) {
	api := &fakeAPI{}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	spec := testSpec()
	first, err := fastClient(ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash": a brand-new client with no in-memory state resubmits.
	second, err := fastClient(ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("resubmit created job %s, want adopted %s", second.ID, first.ID)
	}
	if api.posts != 1 {
		t.Fatalf("POST attempts = %d, want 1 (second submit must adopt)", api.posts)
	}
}

// Adoption prefers a done job over an in-flight one: the result already
// exists, so polling the running duplicate would only waste time.
func TestAdoptPrefersDoneJob(t *testing.T) {
	spec := testSpec()
	api := &fakeAPI{jobs: []server.JobStatus{
		{ID: "running-1", State: server.StateRunning, SpecDigest: spec.Digest()},
		{ID: "done-1", State: server.StateDone, SpecDigest: spec.Digest()},
		{ID: "failed-1", State: server.StateFailed, SpecDigest: spec.Digest()},
	}}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	st, err := fastClient(ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "done-1" {
		t.Fatalf("adopted %s, want done-1", st.ID)
	}
	if api.posts != 0 {
		t.Fatalf("POST attempts = %d, want 0", api.posts)
	}
}

// Failed and cancelled jobs are not adopted: resubmitting after a
// failure must genuinely create a fresh job.
func TestFailedJobsNotAdopted(t *testing.T) {
	spec := testSpec()
	api := &fakeAPI{jobs: []server.JobStatus{
		{ID: "failed-1", State: server.StateFailed, SpecDigest: spec.Digest()},
		{ID: "cancelled-1", State: server.StateCancelled, SpecDigest: spec.Digest()},
	}}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	st, err := fastClient(ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" || api.posts != 1 {
		t.Fatalf("adopted %s with %d posts, want fresh job-1 via 1 POST", st.ID, api.posts)
	}
}

// Wait surfaces a failed terminal state as a typed JobFailedError
// carrying the final status.
func TestWaitReportsFailedJob(t *testing.T) {
	api := &fakeAPI{jobs: []server.JobStatus{
		{ID: "job-9", State: server.StateFailed, Error: "deadline exceeded after 1s"},
	}}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	_, err := fastClient(ts.URL).Wait(context.Background(), "job-9")
	var jf *JobFailedError
	if !errors.As(err, &jf) {
		t.Fatalf("err = %v, want *JobFailedError", err)
	}
	if jf.Status.State != server.StateFailed || jf.Status.Error == "" {
		t.Fatalf("failed status = %+v", jf.Status)
	}
}

// fakeDriver mirrors the server package's test experiment: estimates
// derive only from (seed, global point index, chunk), the seed-stability
// contract that makes results independent of scheduling.
func fakeDriver(spec server.JobSpec, grid []float64) (sweep.PointFunc, int, error) {
	seed := spec.Seed
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := sim.MonteCarloCtx(ctx, start, trials, 1, seed+uint64(pt)*1009, func(r *rng.RNG) bool { return r.Bool(0.1) })
		return []stats.Bernoulli{res.Bernoulli}, err
	}, spec.Points, nil
}

// The full round trip against a real server: Run submits, waits, and
// fetches the result; a second Run with the same spec converges on the
// same digest and byte-identical result without recomputing.
func TestRunAgainstRealServer(t *testing.T) {
	srv, err := server.New(server.Config{
		DataDir:     t.TempDir(),
		Drivers:     map[string]server.Driver{"fake": fakeDriver},
		PoolWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec := testSpec()
	c := fastClient(ts.URL)
	st, data, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone || st.SpecDigest != spec.Digest() {
		t.Fatalf("first run status = %+v", st)
	}
	var res server.Result
	if err := json.Unmarshal(data, &res); err != nil || len(res.Points) != spec.Points {
		t.Fatalf("result decode: %v (%d points)", err, len(res.Points))
	}

	// Idempotent resubmit: a fresh client (as after a crash) converges on
	// the same result bytes without creating a competing computation.
	st2, data2, err := fastClient(ts.URL).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.SpecDigest != st.SpecDigest {
		t.Fatalf("resubmit digest %s != %s", st2.SpecDigest, st.SpecDigest)
	}
	if string(data2) != string(data) {
		t.Fatalf("resubmit result differs:\n%s\nvs\n%s", data2, data)
	}
}
