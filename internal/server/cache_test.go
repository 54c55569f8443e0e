package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"revft/internal/resultcache"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// valueDriver is a deterministic test experiment honouring the contract
// near-miss reuse depends on: an estimate derives from the swept ε value
// (and the spec seed and trial index), never from its grid index or the
// worker count, so a point computed on a superset grid is bit-identical
// to the same ε computed on a subset grid. This mirrors exp's
// value-derived point seeding.
func valueDriver(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
	seed, workers := spec.Seed, spec.Workers
	return func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eps := grid[pt%len(grid)]
		res, err := sim.MonteCarloCtx(ctx, start, trials, workers, seed^math.Float64bits(eps), func(r *rng.RNG) bool { return r.Bool(eps) })
		return []stats.Bernoulli{res.Bernoulli}, err
	}, len(grid), nil
}

func newCacheServer(t *testing.T, cache *resultcache.Store, reg *telemetry.Registry) *Server {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.Drivers = map[string]Driver{"value": valueDriver}
		c.Cache = cache
		c.Metrics = reg
	})
}

func cacheSpec() JobSpec {
	return JobSpec{
		Experiment: "value", GMin: 1e-3, GMax: 1e-2,
		Points: 3, Trials: 500, Seed: 11, Shards: 2,
	}
}

func runToResult(t *testing.T, s *Server, spec JobSpec) (JobStatus, []byte) {
	t.Helper()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("job %s state = %s (error %q)", st.ID, st.State, st.Error)
	}
	data, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st, data
}

func TestCacheExactHit(t *testing.T) {
	reg := telemetry.New()
	cache := &resultcache.Store{Dir: t.TempDir(), Metrics: reg}
	s := newCacheServer(t, cache, reg)
	spec := cacheSpec()

	st1, data1 := runToResult(t, s, spec)
	if st1.Cache != CacheMiss {
		t.Fatalf("first submission cache = %q, want %q", st1.Cache, CacheMiss)
	}

	// The identical spec again: served done at submission, byte-identical,
	// with no Monte Carlo run (jobs_done counts only computed jobs).
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cache != CacheHit || st2.State != StateDone {
		t.Fatalf("resubmit status = %+v, want cache hit and done", st2)
	}
	if st2.ID == st1.ID {
		t.Fatalf("hit job reused the original job ID %s", st1.ID)
	}
	data2, err := s.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cache hit result differs from computed result:\n%s\nvs\n%s", data1, data2)
	}
	if n := reg.Counter("server.cache_hits").Load(); n != 1 {
		t.Fatalf("server.cache_hits = %d, want 1", n)
	}
	if n := reg.Counter("server.jobs_done").Load(); n != 1 {
		t.Fatalf("server.jobs_done = %d, want 1 (the hit must not recompute)", n)
	}
}

func TestCacheTamperedEntryIsMissAndRecomputes(t *testing.T) {
	reg := telemetry.New()
	dir := t.TempDir()
	cache := &resultcache.Store{Dir: dir, Metrics: reg}
	s := newCacheServer(t, cache, reg)
	spec := cacheSpec()

	_, data1 := runToResult(t, s, spec)

	entries, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries = %v (err %v), want exactly 1", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, data2 := runToResult(t, s, spec)
	if st2.Cache != CacheMiss {
		t.Fatalf("tampered-entry submission cache = %q, want %q", st2.Cache, CacheMiss)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("recomputed result differs from the original")
	}
	if n := reg.Counter("cache.corrupt").Load(); n < 1 {
		t.Fatalf("cache.corrupt = %d, want >= 1", n)
	}
	// The recompute overwrote the tampered entry; the next submission is
	// a clean hit again.
	st3, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cache != CacheHit {
		t.Fatalf("post-recompute submission cache = %q, want %q", st3.Cache, CacheHit)
	}
}

func TestCacheNearMissSubsetGrid(t *testing.T) {
	reg := telemetry.New()
	cache := &resultcache.Store{Dir: t.TempDir(), Metrics: reg}
	s := newCacheServer(t, cache, reg)

	// Cache the 3-point superset grid, then ask for the 2-point subset
	// sharing its endpoints: every requested ε is covered, so the job is
	// assembled entirely from cached points and served as a hit.
	super := cacheSpec()
	_, _ = runToResult(t, s, super)

	sub := super
	sub.Points = 2
	sub.Shards = 1
	st, data := runToResult(t, s, sub)
	if st.Cache != CacheHit || st.ReusedPoints != 2 {
		t.Fatalf("subset status = %+v, want cache hit with 2 reused points", st)
	}
	if n := reg.Counter("server.jobs_done").Load(); n != 1 {
		t.Fatalf("server.jobs_done = %d, want 1 (subset must not recompute)", n)
	}

	// The assembled result must be byte-identical to computing the subset
	// spec from scratch on a cache-less server.
	plain := newTestServer(t, func(c *Config) {
		c.Drivers = map[string]Driver{"value": valueDriver}
	})
	_, want := runToResult(t, plain, sub)
	if !bytes.Equal(data, want) {
		t.Fatalf("assembled subset result differs from direct computation:\n%s\nvs\n%s", data, want)
	}
}

func TestCacheNearMissPartialOverlap(t *testing.T) {
	reg := telemetry.New()
	cache := &resultcache.Store{Dir: t.TempDir(), Metrics: reg}
	s := newCacheServer(t, cache, reg)

	super := cacheSpec()
	_, _ = runToResult(t, s, super)

	// {1e-2, 1e-1}: 1e-2 is a cached endpoint, 1e-1 is new — one point
	// grafted, one computed, merged back into requested grid order.
	part := super
	part.GMin, part.GMax, part.Points = 1e-2, 1e-1, 2
	st, data := runToResult(t, s, part)
	if st.Cache != CacheMiss || st.ReusedPoints != 1 || st.Points != 1 {
		t.Fatalf("partial-overlap status = %+v, want miss with 1 reused + 1 computed point", st)
	}
	if n := reg.Counter("server.cache_near_hits").Load(); n != 1 {
		t.Fatalf("server.cache_near_hits = %d, want 1", n)
	}

	plain := newTestServer(t, func(c *Config) {
		c.Drivers = map[string]Driver{"value": valueDriver}
	})
	_, want := runToResult(t, plain, part)
	if !bytes.Equal(data, want) {
		t.Fatalf("grafted result differs from direct computation:\n%s\nvs\n%s", data, want)
	}
}

func TestCacheNonOverlappingGridIsCleanMiss(t *testing.T) {
	reg := telemetry.New()
	cache := &resultcache.Store{Dir: t.TempDir(), Metrics: reg}
	s := newCacheServer(t, cache, reg)

	_, _ = runToResult(t, s, cacheSpec())

	other := cacheSpec()
	other.GMin, other.GMax = 3e-3, 3e-2 // same family, zero shared ε values
	st, _ := runToResult(t, s, other)
	if st.Cache != CacheMiss || st.ReusedPoints != 0 {
		t.Fatalf("disjoint-grid status = %+v, want clean miss with no reuse", st)
	}
	if n := reg.Counter("server.cache_near_hits").Load(); n != 0 {
		t.Fatalf("server.cache_near_hits = %d, want 0", n)
	}
}

func TestCacheNoCacheBypass(t *testing.T) {
	reg := telemetry.New()
	cache := &resultcache.Store{Dir: t.TempDir(), Metrics: reg}
	s := newCacheServer(t, cache, reg)

	spec := cacheSpec()
	spec.NoCache = true
	st1, data1 := runToResult(t, s, spec)
	if st1.Cache != CacheBypass {
		t.Fatalf("nocache submission cache = %q, want %q", st1.Cache, CacheBypass)
	}
	if rep, err := cache.Audit(); err != nil || len(rep.Entries) != 0 {
		t.Fatalf("cache entries after nocache job = %+v (err %v), want none", rep.Entries, err)
	}
	st2, data2 := runToResult(t, s, spec)
	if st2.Cache != CacheBypass {
		t.Fatalf("second nocache submission cache = %q, want %q", st2.Cache, CacheBypass)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("nocache recompute is not deterministic")
	}
	if n := reg.Counter("server.cache_hits").Load(); n != 0 {
		t.Fatalf("server.cache_hits = %d, want 0", n)
	}
}

// TestReplayReusedRecord hand-writes a journal holding a submitted job
// plus its reuse plan — the crash footprint of a near-miss job killed
// mid-run — and starts a cache-less server on it. Replay must rebuild the
// remainder grid from the journal alone, compute only that, and merge a
// full-grid result byte-identical to a from-scratch run.
func TestReplayReusedRecord(t *testing.T) {
	spec := cacheSpec()
	spec.GMin, spec.GMax, spec.Points, spec.Shards = 1e-2, 1e-1, 2, 1
	spec.normalize()
	grid := spec.Grid()

	// Borrow the grafted point's estimates from a real computed result so
	// the journaled plan holds exactly what a near-miss would have lifted.
	donorSrv := newTestServer(t, func(c *Config) {
		c.Drivers = map[string]Driver{"value": valueDriver}
	})
	donor := spec
	donor.GMin, donor.GMax, donor.Points = 1e-2, 1e-2, 1
	_, donorData := runToResult(t, donorSrv, donor)
	var donorRes Result
	if err := json.Unmarshal(donorData, &donorRes); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	id := fmt.Sprintf("j%06d-%.8s", 1, spec.Digest())
	plan := &reusePlan{
		Source:    "0000000000000000000000000000000000000000000000000000000000000000",
		Remainder: []float64{grid[1]},
		Points:    []reusePoint{{Index: 0, Ests: donorRes.Points[0].Ests, Stopped: donorRes.Points[0].Stopped}},
	}
	var journal bytes.Buffer
	for seq, rec := range []Record{
		{Type: recSubmitted, Job: id, At: time.Now().UTC(), Spec: &spec},
		{Type: recReused, Job: id, At: time.Now().UTC(), Reuse: plan},
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

	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Drivers = map[string]Driver{"value": valueDriver}
	})
	st := waitDone(t, s, id)
	if st.State != StateDone || st.ReusedPoints != 1 || st.Points != 1 {
		t.Fatalf("replayed status = %+v, want done with 1 reused + 1 computed point", st)
	}
	data, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}

	plain := newTestServer(t, func(c *Config) {
		c.Drivers = map[string]Driver{"value": valueDriver}
	})
	_, want := runToResult(t, plain, spec)
	if !bytes.Equal(data, want) {
		t.Fatalf("replayed reuse result differs from direct computation:\n%s\nvs\n%s", data, want)
	}
}

// formatDigest is spec's digest under the legacy sweep format v ∈
// {1, …, 4}: the SHA-256 of its normalized canonical JSON — which under
// formats 1 and 2 still held shards and workers — bare under format 1
// and behind a "v<v>" line since. It is what a server before the
// format-2, format-3, format-4 or format-5 migration keyed jobs and cache
// entries by. Those servers normalized shards to at least 1; normalize now
// clears the field.
func formatDigest(t *testing.T, spec JobSpec, v int) string {
	t.Helper()
	shards := max(spec.Shards, 1)
	spec.normalize()
	spec.Priority = ""
	if v >= 3 {
		spec.Workers = 0
	} else {
		spec.Shards = shards
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1 {
		b = append([]byte(fmt.Sprintf("revft spec v%d\n", v)), b...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCacheIgnoresFormatV1Entries: results stored before the format-2,
// format-3, format-4 and format-5 migrations — under their old digests and
// families — were computed by engines that consumed randomness
// differently. They must be
// neither served as an exact hit for the same spec nor grafted as a near
// miss into a subset spec; both are recomputed from scratch.
func TestCacheIgnoresFormatV1Entries(t *testing.T) {
	plain := newTestServer(t, func(c *Config) {
		c.Drivers = map[string]Driver{"value": valueDriver}
	})
	super := cacheSpec()
	super.Engine = "lanes"
	sub := super
	sub.Points, sub.Shards = 2, 1

	// A well-formed result for super, relabelled with its old digest and
	// stored the way a pre-migration server stored it. Its points differ
	// from any current computation, so serving or grafting them would
	// show in the result bytes.
	_, data := runToResult(t, plain, super)
	fam := super
	fam.GMin, fam.GMax, fam.Points = 0, 0, 0
	for _, v := range []int{1, 2, 3, 4} {
		var old Result
		if err := json.Unmarshal(data, &old); err != nil {
			t.Fatal(err)
		}
		old.SpecDigest = formatDigest(t, super, v)
		for i := range old.Points {
			old.Points[i].Ests[0].Successes++
		}
		payload, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		meta := resultcache.Meta{Family: formatDigest(t, fam, v), Experiment: super.Experiment, Tool: "revft-server"}
		if old.SpecDigest == super.Digest() || meta.Family == familyDigest(super) {
			t.Fatalf("format-%d digests collide with current ones", v)
		}

		// The same spec (exact-hit candidate) and a subset grid
		// (near-miss candidate), each against a cache holding only the
		// old entry.
		for _, spec := range []JobSpec{super, sub} {
			reg := telemetry.New()
			cache := &resultcache.Store{Dir: t.TempDir(), Metrics: reg}
			if err := cache.Put(context.Background(), old.SpecDigest, meta, payload, telemetry.Span{}); err != nil {
				t.Fatal(err)
			}
			st, got := runToResult(t, newCacheServer(t, cache, reg), spec)
			if st.Cache != CacheMiss || st.ReusedPoints != 0 {
				t.Fatalf("format %d, %d-point lanes spec: status %+v, want a clean miss", v, spec.Points, st)
			}
			if n := reg.Counter("server.cache_hits").Load() + reg.Counter("server.cache_near_hits").Load(); n != 0 {
				t.Fatalf("format %d, %d-point lanes spec: %d cache hits or near hits, want 0", v, spec.Points, n)
			}
			_, want := runToResult(t, plain, spec)
			if !bytes.Equal(got, want) {
				t.Fatalf("format %d, %d-point lanes spec: result differs from a fresh computation:\n%s\nvs\n%s", v, spec.Points, got, want)
			}
		}
	}
}

// TestCacheHitAcrossWorkersAndShards: workers decide how a job runs,
// never its bytes, and shards is ignored, so neither is in the digest. A
// spec computed at (workers 1, shards 1) is an exact cache hit when
// resubmitted at (workers 4, shards 3), and the served result is
// byte-identical to a fresh computation of the resubmission on a
// cacheless server.
func TestCacheHitAcrossWorkersAndShards(t *testing.T) {
	reg := telemetry.New()
	cache := &resultcache.Store{Dir: t.TempDir(), Metrics: reg}
	s := newCacheServer(t, cache, reg)
	first := cacheSpec()
	first.Trials, first.Workers, first.Shards = 5000, 1, 1
	second := first
	second.Workers, second.Shards = 4, 3
	if first.Digest() != second.Digest() {
		t.Fatalf("digests differ across workers and shards: %s vs %s", first.Digest(), second.Digest())
	}

	if st, _ := runToResult(t, s, first); st.Cache != CacheMiss {
		t.Fatalf("first submission cache = %q, want %q", st.Cache, CacheMiss)
	}
	st, got := runToResult(t, s, second)
	if st.Cache != CacheHit || st.SpecDigest != first.Digest() {
		t.Fatalf("resubmission at workers 4, shards 3: status %+v, want an exact hit on %s", st, first.Digest())
	}
	plain := newTestServer(t, func(c *Config) {
		c.Drivers = map[string]Driver{"value": valueDriver}
	})
	_, want := runToResult(t, plain, second)
	if !bytes.Equal(got, want) {
		t.Fatalf("cache hit differs from a fresh computation at workers 4, shards 3:\n%s\nvs\n%s", got, want)
	}
}

// TestSharedCacheDirNearMiss: two servers on one cache directory, as two
// revft-server processes given the same -cache. B has already made a
// near-miss lookup, so its family index exists, when A stores a 3-point
// sweep; B then serves a one-point subset of A's grid as a hit, with
// A's point bytes.
func TestSharedCacheDirNearMiss(t *testing.T) {
	dir := t.TempDir()
	a := newCacheServer(t, &resultcache.Store{Dir: dir}, telemetry.New())
	bReg := telemetry.New()
	b := newCacheServer(t, &resultcache.Store{Dir: dir}, bReg)

	first := cacheSpec()
	first.Seed++ // another family: B's lookup finds no candidate
	if st, _ := runToResult(t, b, first); st.Cache != CacheMiss {
		t.Fatalf("B's first job cache = %q, want %q", st.Cache, CacheMiss)
	}

	super := cacheSpec()
	_, data := runToResult(t, a, super)
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}

	sub := super
	sub.GMin, sub.GMax, sub.Points, sub.Shards = res.Grid[1], res.Grid[1], 1, 1
	st, subData := runToResult(t, b, sub)
	if st.Cache != CacheHit || st.ReusedPoints != 1 {
		t.Fatalf("B's subset status = %+v, want cache hit with 1 reused point", st)
	}
	if n := bReg.Counter("server.jobs_done").Load(); n != 1 {
		t.Fatalf("B's server.jobs_done = %d, want 1 (the subset must not recompute)", n)
	}
	var subRes Result
	if err := json.Unmarshal(subData, &subRes); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.Points[1].Ests)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(subRes.Points[0].Ests)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("B's point = %s, A's = %s", got, want)
	}
}
