package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// TestSchedWeightedRoundRobin pins the scheduler's claim pattern: under
// contention each 12-claim round serves 8 interactive, 3 batch, 1 bulk,
// and a lone class drains at full speed (work-conserving).
func TestSchedWeightedRoundRobin(t *testing.T) {
	var q sched
	for c := 0; c < numClasses; c++ {
		for i := 0; i < 24; i++ {
			q.push(c, task{j: &job{class: c}})
		}
	}
	var classes []int
	for {
		got, ok := q.pop()
		if !ok {
			break
		}
		classes = append(classes, got.j.class)
	}
	if len(classes) != 3*24 {
		t.Fatalf("popped %d tasks, want %d", len(classes), 3*24)
	}
	// While every class has work, rounds repeat 8×int, 3×batch, 1×bulk.
	round := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2}
	for i := 0; i < 2*len(round); i++ {
		if classes[i] != round[i%len(round)] {
			t.Fatalf("claim %d = class %d, want %d (pattern %v, got %v)",
				i, classes[i], round[i%len(round)], round, classes[:12])
		}
	}

	// Work conservation: only bulk queued → bulk claims back to back.
	var lone sched
	ids := []string{"b0", "b1", "b2"}
	for _, id := range ids {
		lone.push(2, task{j: &job{id: id}})
	}
	for _, id := range ids {
		if got, ok := lone.pop(); !ok || got.j.id != id {
			t.Fatalf("lone bulk claim = (%+v, %v), want (%s, true)", got.j, ok, id)
		}
	}
}

// TestInteractiveAheadOfQueuedBulk is the acceptance scenario: with the
// pool saturated, an interactive job submitted *after* a bulk job still
// has its points claimed first.
func TestInteractiveAheadOfQueuedBulk(t *testing.T) {
	var mu sync.Mutex
	var order []string
	recording := func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
		inner, n, err := fakeDriver(spec, grid)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
			mu.Lock()
			order = append(order, spec.Priority)
			mu.Unlock()
			return inner(ctx, pt, start, trials)
		}, n, nil
	}
	gate := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.PoolWorkers = 1
		c.Drivers["rec"] = recording
		c.Drivers["blocking"] = blockingDriver(gate)
	})

	// Saturate the single worker so the next submissions queue.
	occupant := testSpec()
	occupant.Experiment = "blocking"
	if _, err := s.Submit(occupant); err != nil {
		t.Fatal(err)
	}

	mk := func(priority string, seed uint64) JobStatus {
		spec := JobSpec{
			Experiment: "rec", GMin: 1e-3, GMax: 1e-2,
			Points: 2, Trials: 200, Seed: seed,
			Priority: priority,
		}
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	bulk := mk(PriorityBulk, 1)         // queued first...
	inter := mk(PriorityInteractive, 2) // ...but claimed second

	close(gate)
	waitDone(t, s, inter.ID)
	waitDone(t, s, bulk.ID)

	mu.Lock()
	defer mu.Unlock()
	want := []string{PriorityInteractive, PriorityInteractive, PriorityBulk, PriorityBulk}
	if len(order) != len(want) {
		t.Fatalf("recorded %d point claims (%v), want %d", len(order), order, len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("claim order = %v, want %v", order, want)
		}
	}
}

// TestWatchdogRecoversHungShard: a job whose first attempt hangs
// forever is detected by the stall watchdog, cancelled with a typed
// StallError, and retried from its checkpoint — the job completes within
// its deadline with results bit-identical to an unhindered run.
func TestWatchdogRecoversHungShard(t *testing.T) {
	spec := JobSpec{
		Experiment: "fake", GMin: 1e-3, GMax: 1e-2,
		Points: 3, Trials: 500, Seed: 9,
		TimeoutSeconds: 20,
	}

	// Reference: the same spec on a healthy server.
	ref := newTestServer(t, nil)
	rst, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, rst.ID)
	want, err := ref.Result(rst.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The faulty server: the first point call ever hangs until cancelled.
	var hung atomic.Bool
	hanging := func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
		inner, n, derr := fakeDriver(spec, grid)
		if derr != nil {
			return nil, 0, derr
		}
		return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
			if hung.CompareAndSwap(false, true) {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return inner(ctx, pt, start, trials)
		}, n, nil
	}
	reg := telemetry.New()
	s := newTestServer(t, func(c *Config) {
		c.Drivers["fake"] = hanging
		c.StallBudget = 100 * time.Millisecond
		c.MaintenanceTick = 10 * time.Millisecond
		c.Metrics = reg
	})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, s, st.ID)
	if fin.State != StateDone {
		t.Fatalf("hung-shard job = %+v", fin)
	}
	got, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("watchdog-retried result differs from unhindered run:\n got %s\nwant %s", got, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["server.watchdog_trips"] < 1 {
		t.Errorf("watchdog_trips = %d, want >= 1", snap.Counters["server.watchdog_trips"])
	}
	if snap.Counters["server.shard_retries"] < 1 {
		t.Errorf("shard_retries = %d, want >= 1", snap.Counters["server.shard_retries"])
	}
}

// TestPreemptionResumesBitIdentical: an interactive submission preempts
// a running bulk job at its checkpoint boundary; the bulk job resumes,
// completes, and its result is bit-identical to an uncontended run.
func TestPreemptionResumesBitIdentical(t *testing.T) {
	firstPoint := make(chan struct{})
	var once sync.Once
	slow := func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
		inner, n, err := fakeDriver(spec, grid)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
			once.Do(func() { close(firstPoint) })
			select {
			case <-time.After(20 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner(ctx, pt, start, trials)
		}, n, nil
	}
	bulkSpec := JobSpec{
		Experiment: "slow", GMin: 1e-3, GMax: 1e-2,
		Points: 8, Trials: 200, Seed: 5,
		Priority: PriorityBulk,
	}

	// Reference: the bulk spec alone, never preempted. A fresh sync.Once
	// per server keeps the drivers independent.
	var refOnce sync.Once
	refSlow := func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
		inner, n, err := fakeDriver(spec, grid)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
			refOnce.Do(func() {})
			return inner(ctx, pt, start, trials)
		}, n, nil
	}
	ref := newTestServer(t, func(c *Config) { c.Drivers["slow"] = refSlow })
	rst, err := ref.Submit(bulkSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, rst.ID)
	want, err := ref.Result(rst.ID)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	s := newTestServer(t, func(c *Config) {
		c.PoolWorkers = 1
		c.Drivers["slow"] = slow
		c.Metrics = reg
	})
	bst, err := s.Submit(bulkSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-firstPoint // the bulk attempt is live and registered

	inter := JobSpec{
		Experiment: "fake", GMin: 1e-3, GMax: 1e-3,
		Points: 1, Trials: 200, Seed: 6,
		Priority: PriorityInteractive,
	}
	ist, err := s.Submit(inter)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ist.ID)
	waitDone(t, s, bst.ID)

	if n := reg.Snapshot().Counters["server.shard_preemptions"]; n < 1 {
		t.Errorf("shard_preemptions = %d, want >= 1", n)
	}
	got, err := s.Result(bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("preempted+resumed result differs from uncontended run:\n got %s\nwant %s", got, want)
	}
}

// TestDeadlineNotExtendedByRestart: the deadline anchors to the journaled
// submission time, so a server crash + restart re-arms the timer from the
// *remaining* budget. A job whose budget was fully consumed while the
// server was down fails at replay, before its attempt runs.
func TestDeadlineNotExtendedByRestart(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	defer close(gate)
	cfg := Config{
		DataDir:     dir,
		Drivers:     map[string]Driver{"fake": fakeDriver, "blocking": blockingDriver(gate)},
		PoolWorkers: 1,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Experiment = "blocking"
	spec.TimeoutSeconds = 0.4
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Park the job non-terminal (the blocked attempt checkpoints on the way
	// out), then hold the server "down" past the deadline.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fin, err := s2.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || !strings.Contains(fin.Error, "deadline exceeded") {
		t.Fatalf("replayed over-budget job = %+v, want failed with deadline error", fin)
	}
	if !strings.Contains(fin.Error, "budget consumed before restart") {
		t.Errorf("error %q does not attribute the failure to the consumed budget", fin.Error)
	}
}

// TestDeadlineUnmeetableRejectedAtDoor: a submission whose timeout the
// current queue already makes unmeetable is refused with a typed 429 and
// a Retry-After hint, instead of admitting doomed work.
func TestDeadlineUnmeetableRejectedAtDoor(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.PoolWorkers = 1
		c.ShardSecondsEstimate = 10
	})
	spec := testSpec()
	spec.TimeoutSeconds = 1
	_, err := s.Submit(spec)
	rejectCode(t, err, CodeDeadlineUnmeet, 429)
	var rej *RejectError
	if errors.As(err, &rej) && rej.RetryAfterSeconds < 1 {
		t.Errorf("RetryAfterSeconds = %d, want >= 1", rej.RetryAfterSeconds)
	}

	// A generous timeout clears the same estimate and completes.
	spec.TimeoutSeconds = 100
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
}

// TestQueuedDoomedJobShedEarly: a queued job whose remaining deadline
// budget drops below the observed job service time is failed early by
// the maintenance shedder with a typed reason — and the shed flips the
// health state to degraded.
func TestQueuedDoomedJobShedEarly(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	reg := telemetry.New()
	s := newTestServer(t, func(c *Config) {
		c.PoolWorkers = 1
		c.Drivers["blocking"] = blockingDriver(gate)
		c.ShardSecondsEstimate = 0.5
		c.MaintenanceTick = 20 * time.Millisecond
		c.Metrics = reg
	})
	occupant := testSpec()
	occupant.Experiment = "blocking"
	if _, err := s.Submit(occupant); err != nil {
		t.Fatal(err)
	}

	victim := testSpec()
	victim.Experiment = "blocking"
	victim.Seed = 99
	victim.TimeoutSeconds = 1 // estimated wait exactly 2 waves × 0.5s: admitted
	st, err := s.Submit(victim)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, _ := s.Wait(ctx, st.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "shed") {
		t.Fatalf("doomed job = %+v, want failed with shed reason", fin)
	}
	if n := reg.Snapshot().Counters["server.jobs_shed"]; n != 1 {
		t.Errorf("jobs_shed = %d, want 1", n)
	}
	h := s.Health()
	if h.Status != HealthDegraded || !h.RecentShed {
		t.Errorf("health after shed = %+v, want degraded with RecentShed", h)
	}
}

// TestClassBoundsUnderConcurrentSubmission: per-class admission bounds
// hold exactly under a concurrent flood, rejections are typed
// class_queue_full 429s with Retry-After hints, and the class bound
// composes with the tenant quota rather than replacing it.
func TestClassBoundsUnderConcurrentSubmission(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := newTestServer(t, func(c *Config) {
		c.Drivers["blocking"] = blockingDriver(gate)
		c.MaxActivePerClass = map[string]int{PriorityBulk: 2}
		c.MaxJobsPerTenant = 3
	})

	const flood = 8
	type outcome struct {
		err error
	}
	results := make(chan outcome, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := testSpec()
			spec.Experiment = "blocking"
			spec.Priority = PriorityBulk
			spec.Seed = uint64(100 + i)
			_, err := s.Submit(spec)
			results <- outcome{err}
		}(i)
	}
	wg.Wait()
	close(results)
	admitted, rejected := 0, 0
	for r := range results {
		if r.err == nil {
			admitted++
			continue
		}
		rejected++
		var rej *RejectError
		if !errors.As(r.err, &rej) || rej.Code != CodeClassQueueFull || rej.Status != 429 {
			t.Fatalf("flood rejection = %v, want class_queue_full 429", r.err)
		}
		if rej.RetryAfterSeconds < 1 {
			t.Errorf("class_queue_full RetryAfterSeconds = %d, want >= 1", rej.RetryAfterSeconds)
		}
	}
	if admitted != 2 || rejected != flood-2 {
		t.Fatalf("flood admitted %d / rejected %d, want exactly 2 / %d", admitted, rejected, flood-2)
	}

	// The bulk class is full but the tenant still has quota: a higher
	// class is admitted...
	inter := testSpec()
	inter.Experiment = "blocking"
	inter.Priority = PriorityInteractive
	inter.Seed = 200
	if _, err := s.Submit(inter); err != nil {
		t.Fatalf("interactive submission blocked by the bulk class bound: %v", err)
	}
	// ...and the next job of any class hits the tenant quota, not the
	// class bound.
	fourth := testSpec()
	fourth.Experiment = "blocking"
	fourth.Priority = PriorityInteractive
	fourth.Seed = 201
	_, err := s.Submit(fourth)
	rejectCode(t, err, CodeTenantJobQuota, 429)
}

// TestGarbagePriorityRejectedBeforeMetrics: hostile priority strings are
// refused at validation and never reach a metric name, so the reject
// counter cardinality stays bounded by the fixed code set.
func TestGarbagePriorityRejectedBeforeMetrics(t *testing.T) {
	reg := telemetry.New()
	s := newTestServer(t, func(c *Config) { c.Metrics = reg })
	for i := 0; i < 100; i++ {
		spec := testSpec()
		spec.Priority = fmt.Sprintf("pwn-%d\n{injected}", i)
		_, err := s.Submit(spec)
		rejectCode(t, err, CodeInvalidSpec, 400)
	}
	snap := reg.Snapshot()
	rejectSeries := 0
	for name := range snap.Counters {
		if strings.Contains(name, "pwn") || strings.Contains(name, "{") {
			t.Errorf("hostile priority leaked into metric name %q", name)
		}
		if strings.HasPrefix(name, "server.reject.") {
			rejectSeries++
		}
	}
	if rejectSeries != 1 {
		t.Errorf("reject code series = %d, want 1 (invalid_spec only)", rejectSeries)
	}
}

// TestPrioritySchedulingSeedStable: the same spec produces byte-identical
// results whatever priority class it runs under — the invariance that
// makes preemption and weighted scheduling safe. The digest agrees:
// priority is excluded, so all classes share one cache/checkpoint
// identity, and the zero-priority digest is pinned against drift — and
// against its format-1 to format-4 values, which pre-migration entries
// carry.
func TestPrioritySchedulingSeedStable(t *testing.T) {
	base := testSpec()
	const golden = "58a9459a4c3fcd95520bd18fa4ae2042ef641b5056986449f724768e875629a3"
	if d := base.Digest(); d != golden {
		t.Errorf("baseline spec digest = %s, want pinned %s (digests are identities: checkpoints and cache entries churn on drift)", d, golden)
	}
	for v, old := range map[int]string{
		1: "32a71f8505152a06251b36aeade83a41f8f76b65ff56170643d0f0d2ba306511",
		2: "8f0b6ae8e70d95c5361dd74e81f1eba49c99c01917266672ba5e23d0f0754167",
		3: "b907a0970cd9daad2f2f6bda3b3ea50f89b60c307cd1e015b47dd00a034c71b5",
		4: "110bb64b481198afe63b171eef546a8dc2952a2c7e2273a121799f68670d3bf5",
	} {
		if d := formatDigest(t, base, v); d != old || d == golden {
			t.Errorf("format-%d digest = %s, want pinned %s, distinct from the current %s", v, d, old, golden)
		}
	}
	for _, p := range []string{"", PriorityInteractive, PriorityBatch, PriorityBulk} {
		spec := base
		spec.Priority = p
		if d := spec.Digest(); d != golden {
			t.Errorf("digest at priority %q = %s, want %s (priority must not shape the digest)", p, d, golden)
		}
	}

	var results [][]byte
	for _, p := range []string{PriorityInteractive, PriorityBulk} {
		s := newTestServer(t, nil)
		spec := base
		spec.Priority = p
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, st.ID)
		data, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, data)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("results differ across priority classes:\n%s\nvs\n%s", results[0], results[1])
	}
}

// TestHealthStateMachine walks healthy → degraded → draining and failed,
// checking both the programmatic view and the /healthz status codes.
func TestHealthStateMachine(t *testing.T) {
	gate := make(chan struct{})
	reg := telemetry.New()
	s := newTestServer(t, func(c *Config) {
		c.PoolWorkers = 1
		c.Drivers["blocking"] = blockingDriver(gate)
		c.DegradedQueueDepth = 1
		c.Metrics = reg
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	healthz := func() int {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if h := s.Health(); h.Status != HealthHealthy {
		t.Fatalf("fresh server health = %+v", h)
	}
	if code := healthz(); code != 200 {
		t.Fatalf("healthy /healthz = %d, want 200", code)
	}

	// Saturate the single worker and pile up queued jobs past the bound.
	occupant := testSpec()
	occupant.Experiment = "blocking"
	if _, err := s.Submit(occupant); err != nil {
		t.Fatal(err)
	}
	var backlog []JobStatus
	for seed := uint64(77); seed < 79; seed++ {
		spec := testSpec()
		spec.Experiment = "blocking"
		spec.Seed = seed
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		backlog = append(backlog, st)
	}
	h := s.Health()
	if h.Status != HealthDegraded || !strings.Contains(h.Reason, "queue depth") {
		t.Fatalf("backlogged health = %+v, want degraded on queue depth", h)
	}
	// Degraded still serves traffic: /healthz stays 200.
	if code := healthz(); code != 200 {
		t.Fatalf("degraded /healthz = %d, want 200", code)
	}
	if v := reg.Snapshot().Gauges["server.health_state"]; v != 1 {
		t.Errorf("health_state gauge = %v, want 1 (degraded)", v)
	}

	// Release the backlog: the server recovers to healthy.
	close(gate)
	for _, st := range backlog {
		waitDone(t, s, st.ID)
	}
	if h := s.Health(); h.Status != HealthHealthy {
		t.Fatalf("post-backlog health = %+v, want healthy", h)
	}

	// Draining flips /healthz to 503 with a Retry-After.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Status != HealthDraining {
		t.Fatalf("draining health = %+v", h)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining /healthz = %d (Retry-After %q), want 503 with hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// A fatal error outranks everything.
	s.mu.Lock()
	s.fatalLocked(errors.New("synthetic fatal"))
	s.mu.Unlock()
	if h := s.Health(); h.Status != HealthFailed || !strings.Contains(h.Reason, "synthetic fatal") {
		t.Fatalf("failed health = %+v", h)
	}
}

// TestStallErrorProvenance pins the typed stall fields a retry consumer
// (and the trace) relies on.
func TestStallErrorProvenance(t *testing.T) {
	err := &StallError{Job: "j42", PointsDone: 7, Idle: 1500 * time.Millisecond, Budget: time.Second}
	for _, want := range []string{"j42", "7 points", "1.5s", "budget 1s"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("StallError %q missing %q", err.Error(), want)
		}
	}
	pre := &PreemptError{Job: "j9"}
	for _, want := range []string{"j9", "checkpoint boundary"} {
		if !strings.Contains(pre.Error(), want) {
			t.Errorf("PreemptError %q missing %q", pre.Error(), want)
		}
	}
}
