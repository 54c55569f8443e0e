package server

// Result-cache integration: the content-addressed store consulted in
// front of admission. An exact digest hit short-circuits the entire
// pipeline — the job is journaled submitted+done and its result.json is
// the cached bytes verbatim, so a hit is byte-identical to having run
// the Monte Carlo. A near miss (same experiment family, a cached ε-grid
// that is a superset of the requested one) grafts the cached points into
// the job and runs only the remainder grid; the reuse plan is journaled
// so a crash mid-job replays to the identical shard layout without
// consulting the cache again.
//
// Correctness of near-miss reuse rests on value-derived point seeding
// (exp.pointSeed): an estimate's trial stream depends on the swept ε
// value and the trial index, never the grid index or the worker count,
// so points lifted from a superset grid are bit-identical to what the
// subset job would have computed itself.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"revft/internal/chaos"
	"revft/internal/resultcache"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// Cache outcome labels for JobStatus.Cache.
const (
	CacheHit    = "hit"
	CacheMiss   = "miss"
	CacheBypass = "bypass"
)

// familyDigest keys the near-miss index: the spec digest with every
// grid-shape and scheduling field zeroed (Digest drops the rest), so two
// specs share a family exactly when they run the same experiment, engine,
// seed, trial budget, stop rule, and tenant — everything that shapes a
// point's value — and differ only in which ε values they sweep.
func familyDigest(spec JobSpec) string {
	spec.GMin, spec.GMax, spec.Points = 0, 0, 0
	spec.TimeoutSeconds = 0
	return spec.Digest()
}

// reusePoint is one cached point grafted into a job's result, indexed in
// the requested grid's global point order.
type reusePoint struct {
	Index   int               `json:"index"`
	Ests    []stats.Bernoulli `json:"ests"`
	Stopped bool              `json:"stopped,omitempty"`
}

// reusePlan is a journaled near-miss reuse decision: the cache entry the
// points came from, the requested ε values still to compute, and the
// lifted points themselves. Journaling the plan makes replay
// self-contained — a restarted server reconstructs the same remainder
// grid (hence the same shard checkpoint digests) even if the cache
// directory has changed or vanished since.
type reusePlan struct {
	Source    string       `json:"source"`
	Remainder []float64    `json:"remainder"`
	Points    []reusePoint `json:"points"`
}

// cacheLookup consults the store for spec before admission, outside the
// server mutex (it is pure disk reads). It returns an exact-hit payload
// (the bytes to serve as result.json, plus its point count), or a
// near-miss reuse plan, or neither. A corrupt entry is a miss — Get
// never returns tampered bytes.
func (s *Server) cacheLookup(spec JobSpec, digest string, span telemetry.Span) ([]byte, int, *reusePlan) {
	if payload, _, err := s.cfg.Cache.Get(digest, span); err == nil {
		if res, ok := decodeCachedResult(payload, digest, spec.Grid()); ok {
			return payload, len(res.Points), nil
		}
		s.cfg.Metrics.Counter("server.cache_undecodable").Inc()
		s.logf("cache entry %.12s verified but did not decode as a result for its spec; recomputing", digest)
	}
	return nil, 0, s.nearMissPlan(spec, digest, span)
}

// decodeCachedResult parses and cross-checks a cached payload against
// the spec it is about to serve: digest binding, grid equality, and a
// complete block-structured point set. The content hash already proved
// the bytes are what was stored; this proves what was stored answers
// this spec.
func decodeCachedResult(payload []byte, digest string, grid []float64) (*Result, bool) {
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, false
	}
	if res.SpecDigest != digest || !gridsEqual(res.Grid, grid) {
		return nil, false
	}
	if !wellFormedPoints(res.Points, len(res.Grid)) {
		return nil, false
	}
	return &res, true
}

// wellFormedPoints checks a result's points are exactly B complete
// blocks over the grid, in global index order.
func wellFormedPoints(pts []ResultPoint, gridLen int) bool {
	if gridLen < 1 || len(pts) == 0 || len(pts)%gridLen != 0 {
		return false
	}
	for i, p := range pts {
		if p.Index != i || len(p.Ests) == 0 {
			return false
		}
	}
	return true
}

func gridsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// nearMissPlan scans the store for a same-family entry whose grid is a
// superset of the requested one (bitwise value match — log-spaced grids
// sharing endpoints align exactly because stats.LogSpace pins them) and
// builds the reuse plan covering the most requested points. Every grid
// value must be found in one single entry; partial coverage across
// entries is not stitched — one source keeps the provenance simple and
// the plan journalable.
func (s *Server) nearMissPlan(spec JobSpec, digest string, span telemetry.Span) *reusePlan {
	family := familyDigest(spec)
	metas, err := s.cfg.Cache.List()
	if err != nil {
		s.logf("cache near-miss scan failed: %v", err)
		return nil
	}
	grid := spec.Grid()
	var best *reusePlan
	for _, m := range metas {
		if m.Family != family || m.SpecDigest == digest {
			continue
		}
		payload, _, gerr := s.cfg.Cache.Get(m.SpecDigest, span)
		if gerr != nil {
			continue
		}
		var res Result
		if jerr := json.Unmarshal(payload, &res); jerr != nil || res.SpecDigest != m.SpecDigest {
			continue
		}
		if !wellFormedPoints(res.Points, len(res.Grid)) {
			continue
		}
		plan := buildReusePlan(grid, &res)
		if plan == nil {
			continue
		}
		if best == nil || len(plan.Points) > len(best.Points) {
			best = plan
		}
	}
	return best
}

// buildReusePlan maps the cached entry's points onto the requested grid.
// Returns nil when no requested ε value appears in the cached grid.
func buildReusePlan(grid []float64, res *Result) *reusePlan {
	cachedIdx := make(map[uint64]int, len(res.Grid))
	for i, v := range res.Grid {
		cachedIdx[math.Float64bits(v)] = i
	}
	blocks := len(res.Points) / len(res.Grid)
	var matched []int // requested grid index -> cached grid index, -1 for unmatched
	found := 0
	matched = make([]int, len(grid))
	for ri, v := range grid {
		ci, ok := cachedIdx[math.Float64bits(v)]
		if !ok {
			matched[ri] = -1
			continue
		}
		matched[ri] = ci
		found++
	}
	if found == 0 {
		return nil
	}
	plan := &reusePlan{Source: res.SpecDigest}
	for ri, ci := range matched {
		if ci < 0 {
			plan.Remainder = append(plan.Remainder, grid[ri])
		}
	}
	for b := 0; b < blocks; b++ {
		for ri, ci := range matched {
			if ci < 0 {
				continue
			}
			src := res.Points[b*len(res.Grid)+ci]
			plan.Points = append(plan.Points, reusePoint{
				Index:   b*len(grid) + ri,
				Ests:    src.Ests,
				Stopped: src.Stopped,
			})
		}
	}
	return plan
}

// assembleReused builds the full result for a job whose every point was
// served from the cache (an empty-remainder reuse plan): the plan's
// points are already indexed in the requested grid's order.
func assembleReused(spec JobSpec, digest string, plan *reusePlan) ([]byte, int, error) {
	grid := spec.Grid()
	if len(plan.Remainder) != 0 || len(plan.Points)%len(grid) != 0 {
		return nil, 0, fmt.Errorf("reuse plan does not cover the full grid")
	}
	pts := make([]ResultPoint, len(plan.Points))
	seen := make([]bool, len(plan.Points))
	for _, rp := range plan.Points {
		if rp.Index < 0 || rp.Index >= len(pts) || seen[rp.Index] {
			return nil, 0, fmt.Errorf("reuse plan has bad point index %d", rp.Index)
		}
		pts[rp.Index] = ResultPoint{Index: rp.Index, Ests: rp.Ests, Stopped: rp.Stopped}
		seen[rp.Index] = true
	}
	res := &Result{Experiment: spec.Experiment, SpecDigest: digest, Grid: grid, Points: pts}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, 0, err
	}
	return append(data, '\n'), len(pts), nil
}

// admitCacheHitLocked finishes a submission whose full result is already
// in hand (exact hit or fully-covered reuse plan): assign the ID, write
// result.json from the payload bytes, and journal submitted+done. The
// job is terminal at birth — it consumes no quota, no pool slot, and no
// Monte Carlo. The result write precedes the done record, so a crash in
// between replays as a plain non-terminal job and recomputes (value-
// derived seeding makes the recompute bit-identical). Returns ok=false
// if the result write failed, in which case the caller falls back to
// computing; nothing has been journaled.
func (s *Server) admitCacheHitLocked(j *job, payload []byte, points int, parent telemetry.Span) (JobStatus, bool, error) {
	j.id = fmt.Sprintf("j%06d-%.8s", s.nextSeqLocked(), j.digest)
	j.span = telemetry.Span{ID: j.id, Parent: parent.ID}
	j.points = points
	dir := s.jobDir(j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.logf("job %s: mkdir: %v", j.id, err)
		return JobStatus{}, false, nil
	}
	path := filepath.Join(dir, "result.json")
	werr := s.cfg.Retry.Do(context.Background(), func() error {
		return chaos.WriteFileAtomic(s.fs, path, payload)
	})
	if werr != nil {
		// Degrade to computing; the orphaned ID and directory are inert.
		s.cfg.Metrics.Counter("server.cache_hit_write_errors").Inc()
		s.logf("job %s: cache-hit result write failed (%v); computing instead", j.id, werr)
		return JobStatus{}, false, nil
	}
	now := time.Now().UTC()
	if err := s.journal.Append(Record{Seq: s.seq, Type: recSubmitted, Job: j.id, At: j.submittedAt, Spec: &j.spec}); err != nil {
		s.fatalLocked(err)
		return JobStatus{}, true, reject(CodeServerFailed, 503, "journal write failed: %v", err)
	}
	if err := s.journal.Append(Record{Seq: s.nextSeqLocked(), Type: recDone, Job: j.id, At: now}); err != nil {
		// Submitted is durable but done is not: a restart will recompute.
		// In this process the job is still served as done.
		s.fatalLocked(err)
	}
	j.state = StateDone
	close(j.doneCh)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.cfg.Metrics.Counter("server.jobs_submitted").Inc()
	s.cfg.Metrics.Counter("server.tenant." + s.tlabels.label(j.spec.Tenant) + ".jobs_submitted").Inc()
	s.cfg.Metrics.Counter("server.cache_hits").Inc()
	s.cfg.Trace.Emit("job_cache_hit", j.span.Tag(map[string]any{
		"job": j.id, "tenant": j.spec.Tenant, "digest": j.digest, "points": points,
	}))
	s.logf("job %s (%s) served from cache: %d points, no compute", j.id, j.spec.Experiment, points)
	return s.statusLocked(j), true, nil
}

// storeResultLocked pushes a freshly completed job's result bytes into
// the cache, best-effort: a store failure never affects the job. Called
// with the server mutex held, after result.json landed.
func (s *Server) storeResultLocked(j *job, data []byte) {
	if s.cfg.Cache == nil || j.spec.NoCache {
		return
	}
	meta := resultcache.Meta{
		Family:     familyDigest(j.spec),
		Experiment: j.spec.Experiment,
		Tool:       "revft-server",
	}
	if err := s.cfg.Cache.Put(context.Background(), j.digest, meta, data, j.span.Child("cache")); err != nil {
		s.logf("job %s: cache store failed (result unaffected): %v", j.id, err)
	}
}

// restorePlanFromRecord validates a journaled reuse plan during replay.
// A plan must name remainder work — empty-remainder jobs are journaled
// terminal in the same breath and never replay through activation.
func restorePlanFromRecord(rec Record) *reusePlan {
	p := rec.Reuse
	if p == nil || len(p.Remainder) == 0 {
		return nil
	}
	return p
}

// cacheOutcome labels the job's status field given the server and spec
// configuration at submission.
func (s *Server) cacheOutcome(spec JobSpec) string {
	if s.cfg.Cache == nil {
		return ""
	}
	if spec.NoCache {
		return CacheBypass
	}
	return CacheMiss
}
