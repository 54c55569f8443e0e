package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"revft/internal/resultcache"
	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// cachedSuperset runs cacheSpec to completion on a cache-backed server,
// indexes its entry with one family lookup, and returns the server, the
// store, the superset's digest and a subset spec its entry covers.
func cachedSuperset(t *testing.T) (*Server, *resultcache.Store, string, JobSpec) {
	t.Helper()
	reg := telemetry.New()
	cache := &resultcache.Store{Dir: t.TempDir(), Metrics: reg}
	s := newCacheServer(t, cache, reg)
	super := cacheSpec()
	runToResult(t, s, super)
	sub := super
	sub.Points, sub.Shards = 2, 1
	if plan := s.nearMissPlan(sub, sub.Digest(), telemetry.Span{}); plan == nil || len(plan.Points) != 2 {
		t.Fatalf("near-miss plan before tampering = %+v, want 2 grafted points", plan)
	}
	return s, cache, super.Digest(), sub
}

// TestNearMissSkipsCorruptedCandidate: an entry corrupted after the
// family index took it in is still a candidate, but Get refuses it, so
// no plan grafts its points.
func TestNearMissSkipsCorruptedCandidate(t *testing.T) {
	s, cache, superDigest, sub := cachedSuperset(t)
	path := cache.Path(superDigest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cands, err := cache.Family(familyDigest(sub))
	if err != nil || !reflect.DeepEqual(cands, []string{superDigest}) {
		t.Fatalf("Family = %v, %v; want the corrupted entry as the one candidate", cands, err)
	}
	if plan := s.nearMissPlan(sub, sub.Digest(), telemetry.Span{}); plan != nil {
		t.Fatalf("near-miss plan grafted %d points from a corrupt entry", len(plan.Points))
	}
}

// TestNearMissChecksFreshHeader: an entry rewritten after indexing under
// another family still verifies, and is still a candidate of its old
// family, but its re-read header no longer matches, so it is not grafted.
func TestNearMissChecksFreshHeader(t *testing.T) {
	s, cache, superDigest, sub := cachedSuperset(t)
	payload, meta, err := cache.Get(superDigest, telemetry.Span{})
	if err != nil {
		t.Fatal(err)
	}
	meta.Family = familyDigest(JobSpec{Experiment: "other"})
	if err := cache.Put(context.Background(), superDigest, meta, payload, telemetry.Span{}); err != nil {
		t.Fatal(err)
	}
	cands, err := cache.Family(familyDigest(sub))
	if err != nil || !reflect.DeepEqual(cands, []string{superDigest}) {
		t.Fatalf("Family = %v, %v; want the rewritten entry as a stale candidate", cands, err)
	}
	if plan := s.nearMissPlan(sub, sub.Digest(), telemetry.Span{}); plan != nil {
		t.Fatalf("near-miss plan grafted %d points from an entry of another family", len(plan.Points))
	}
}

// TestJobsByDigestOrderAcrossRestart: the digest lookup lists a spec's
// jobs in submission order, and a restarted server rebuilds the same
// list from the journal and keeps appending to it.
func TestJobsByDigestOrderAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Drivers: map[string]Driver{"fake": fakeDriver}, PoolWorkers: 2}
	a, b := testSpec(), testSpec()
	b.Seed++
	ids := func(sts []JobStatus) []string {
		var out []string
		for _, st := range sts {
			out = append(out, st.ID)
		}
		return out
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, spec := range []JobSpec{a, b, a} {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, st.ID)
		if spec == a {
			want = append(want, st.ID)
		}
	}
	if got := ids(s.JobsByDigest(a.Digest())); !reflect.DeepEqual(got, want) {
		t.Fatalf("JobsByDigest = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := ids(s2.JobsByDigest(a.Digest())); !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart JobsByDigest = %v, want %v", got, want)
	}
	st, err := s2.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, st.ID)
	if got := ids(s2.JobsByDigest(a.Digest())); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a new submission JobsByDigest = %v, want %v", got, want)
	}
	if got := s2.JobsByDigest("no-such-digest"); got != nil {
		t.Fatalf("JobsByDigest of an unknown digest = %v, want nil", got)
	}
}

// TestTerminalJobWhileShardsInFlight ends a job while its one attempt is
// running — by a cancel, and by its deadline. The attempt ignores
// cancellation and completes its only point after the job is terminal,
// so its outcome must book nothing: no result, no state change, and the
// job keeps no point function. Run it under -race.
func TestTerminalJobWhileShardsInFlight(t *testing.T) {
	for _, tc := range []struct {
		mode    string
		state   State
		timeout float64
	}{{"cancel", StateCancelled, 0}, {"fail", StateFailed, 0.5}} {
		t.Run(tc.mode, func(t *testing.T) {
			gate := make(chan struct{})
			openGate := sync.OnceFunc(func() { close(gate) })
			defer openGate()
			started := make(chan struct{}, 1)
			var returned atomic.Int32
			driver := func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
				inner, n, err := fakeDriver(spec, grid)
				return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
					started <- struct{}{}
					<-gate // ignores ctx: completes after the job ends
					defer returned.Add(1)
					return inner(context.Background(), pt, start, trials)
				}, n, err
			}
			s := newTestServer(t, func(c *Config) {
				c.Drivers = map[string]Driver{"gated": driver}
			})
			spec := testSpec()
			spec.Experiment, spec.GMax, spec.Points = "gated", spec.GMin, 1
			spec.TimeoutSeconds = tc.timeout
			st, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			<-started
			if tc.mode == "cancel" {
				if _, err := s.Cancel(st.ID); err != nil {
					t.Fatal(err)
				}
			}
			end := waitDone(t, s, st.ID)
			openGate()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if end.State != tc.state {
				t.Fatalf("job state = %s, want %s", end.State, tc.state)
			}
			if returned.Load() != 1 {
				t.Fatalf("the attempt's point returned %d times, want once, after the job ended", returned.Load())
			}
			if got, err := s.Job(st.ID); err != nil || got.State != tc.state {
				t.Fatalf("after the late outcome: %+v, %v; want state %s", got, err, tc.state)
			}
			if _, err := os.Stat(filepath.Join(s.jobDir(st.ID), "result.json")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("terminal job booked a result: stat err %v", err)
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.jobs[st.ID].fn != nil {
				t.Fatal("terminal job still holds its point function")
			}
		})
	}
}

// TestCancelRacesShardClaim cancels jobs the moment they are admitted, so
// cancels land between a worker claiming a job and starting it: the
// attempt must run with the point function it claimed, not the job's
// released one. Run it under -race.
func TestCancelRacesShardClaim(t *testing.T) {
	s := newTestServer(t, nil)
	for i := 0; i < 50; i++ {
		spec := testSpec()
		spec.Points, spec.Seed = 4, uint64(i)
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
	}
}
