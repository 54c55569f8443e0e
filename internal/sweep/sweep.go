// Package sweep is the resilient runtime for long Monte Carlo parameter
// sweeps: it drives a table sweep point by point under a context, writes
// an atomic JSON checkpoint after every completed point, resumes mid-sweep
// from a checkpoint whose spec digest matches, and optionally stops each
// point early once its estimates are statistically tight enough.
//
// The contract that makes resume trustworthy is all-or-nothing points:
// only fully completed points enter the checkpoint, and an interrupted
// point re-runs from scratch with its original seed. Point functions
// address randomness by trial index, so an interrupted-and-resumed sweep
// is bit-identical to an uninterrupted one, at any worker count.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"revft/internal/chaos"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// StopRule configures adaptive early stopping per sweep point. The rule
// fires once every estimate of the point has a 95% Wilson half-width at
// most RelTol times its rate, after at least MinTrials and at most
// MaxTrials trials per estimate.
type StopRule struct {
	// RelTol is the target relative half-width; 0 disables early
	// stopping (the point runs exactly Spec.Trials trials).
	RelTol float64 `json:"reltol"`
	// MinTrials is the floor before the rule may fire; <= 0 selects
	// 1000. It is rounded up to whole sim.BlockTrials blocks, capped at
	// the ceiling, and is also the size of the first chunk.
	MinTrials int `json:"min_trials"`
	// MaxTrials is the ceiling; <= 0 selects Spec.Trials.
	MaxTrials int `json:"max_trials"`
	// ZeroScale, when positive, lets zero-success estimates converge too:
	// such an estimate is accepted once its 95% Wilson upper bound (the
	// rule-of-three regime, ≈ 3.84/n for large n) is at most
	// RelTol·ZeroScale. Set it to the smallest rate the sweep point could
	// plausibly have — e.g. the analytic bound ρ·(g/ρ)^(2^L) — so "zero
	// observed failures" stops once the data excludes anything detectably
	// above that scale. Zero (the default) keeps the old behavior:
	// zero-success points run to the ceiling. The field is omitted from
	// the JSON encoding when zero so existing checkpoint digests are
	// unchanged.
	ZeroScale float64 `json:"zero_scale,omitempty"`
}

// Branch labels for ConvergedBranch and the early_stop trace event.
const (
	// BranchRelative marks convergence by the relative half-width test.
	BranchRelative = "relative"
	// BranchZeroAbsolute marks convergence of a zero-success estimate by
	// the absolute rule-of-three test against RelTol·ZeroScale.
	BranchZeroAbsolute = "zero-absolute"
)

// Enabled reports whether adaptive early stopping is on.
func (s StopRule) Enabled() bool { return s.RelTol > 0 }

// Converged reports whether every estimate satisfies the stop rule; see
// ConvergedBranch.
func (s StopRule) Converged(ests []stats.Bernoulli) bool {
	ok, _ := s.ConvergedBranch(ests)
	return ok
}

// ConvergedBranch reports whether every estimate satisfies the rule, and
// which branch decided it: BranchRelative when every estimate passed the
// relative half-width test, BranchZeroAbsolute when at least one
// zero-success estimate was accepted by the absolute fallback. An
// estimate with zero successes has unbounded relative width; it converges
// only via the ZeroScale fallback, so with ZeroScale disabled all-zero
// points run to the ceiling. On non-convergence the branch is "".
func (s StopRule) ConvergedBranch(ests []stats.Bernoulli) (bool, string) {
	if len(ests) == 0 {
		return false, ""
	}
	branch := BranchRelative
	for _, e := range ests {
		if e.Successes == 0 {
			if s.ZeroScale <= 0 {
				return false, ""
			}
			if _, hi := e.Wilson(1.96); hi > s.RelTol*s.ZeroScale {
				return false, ""
			}
			branch = BranchZeroAbsolute
			continue
		}
		lo, hi := e.Wilson(1.96)
		if (hi-lo)/2 > s.RelTol*e.Rate() {
			return false, ""
		}
	}
	return true, branch
}

// MaxRelHalfWidth returns the loosest estimate's ratio of 95% Wilson
// half-width to rate — the quantity Converged compares against RelTol,
// reported in telemetry so every early-stop decision records the width
// that triggered it. A zero-success estimate contributes its Wilson upper
// bound divided by ZeroScale (the quantity the fallback branch compares
// against RelTol) when ZeroScale is set, and math.Inf(1) otherwise; an
// empty slice yields math.Inf(1).
func (s StopRule) MaxRelHalfWidth(ests []stats.Bernoulli) float64 {
	if len(ests) == 0 {
		return math.Inf(1)
	}
	max := 0.0
	for _, e := range ests {
		var rel float64
		if e.Successes == 0 {
			if s.ZeroScale <= 0 {
				return math.Inf(1)
			}
			_, hi := e.Wilson(1.96)
			rel = hi / s.ZeroScale
		} else {
			lo, hi := e.Wilson(1.96)
			rel = (hi - lo) / 2 / e.Rate()
		}
		if rel > max {
			max = rel
		}
	}
	return max
}

// Spec identifies a sweep for checkpoint compatibility. The digest covers
// every field but Workers, which decides only the speed: two runs may
// share a checkpoint only if the experiment, the grid, the trial budget,
// the seeding, the engine, and the stop rule all agree.
type Spec struct {
	Experiment string    `json:"experiment"`
	Grid       []float64 `json:"grid,omitempty"` // the swept parameter values
	Points     int       `json:"points"`         // sweep points (may exceed len(Grid), e.g. levels × grid)
	Trials     int       `json:"trials"`
	Workers    int       `json:"workers,omitempty"`
	Seed       uint64    `json:"seed"`
	Engine     string    `json:"engine"`
	Extra      string    `json:"extra,omitempty"` // driver-specific parameters, e.g. "maxlevel=2"
	Stop       StopRule  `json:"stop"`
}

// FormatVersion is the spec-digest format. It is hashed ahead of the
// canonical spec bytes, so every digest — sweep.Spec's and the job
// server's JobSpec's alike — names both the spec and the format that
// computes it. A change that makes a fixed spec produce different result
// bytes (an engine consuming randomness differently, a new seeding
// scheme) bumps it, which retires every checkpoint and cache entry
// written before: they can never match a current digest, so they are
// never resumed or served as if the current code could recompute them.
//
// Version 1 hashed the canonical bytes alone. Version 2 runs the "lanes"
// engine on the one bit-sliced compiler (words = 1). Version 3 seeds
// trial blocks by index, and workers left the canonical bytes. Version 4
// draws the lane engines' geometric fault gaps from the exponential
// ziggurat and a fault's replacement bits from one word. Version 5
// compiles each source op to its own lane op with one fault point, which
// moves the bare adder's lane results: its UMA triples, once fused into
// one kernel, had mapped replacement bits onto their wires differently.
const FormatVersion = 5

// DigestBytes returns the hex SHA-256 of "revft spec v<FormatVersion>\n"
// followed by canonical, a spec's canonical JSON encoding.
func DigestBytes(canonical []byte) string { return digestAt(FormatVersion, canonical) }

// digestAt is format version v's digest of canonical: bare under
// version 1, behind a version line since.
func digestAt(v int, canonical []byte) string {
	h := sha256.New()
	if v > 1 {
		fmt.Fprintf(h, "revft spec v%d\n", v)
	}
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))
}

// canonical returns the spec's canonical JSON encoding, without Workers.
func (s Spec) canonical() []byte {
	s.Workers = 0
	return marshalSpec(s)
}

// legacySpec is Spec as format versions 1 and 2 encoded it, workers
// always included; conversion from Spec ignores the tags.
type legacySpec struct {
	Experiment string    `json:"experiment"`
	Grid       []float64 `json:"grid,omitempty"`
	Points     int       `json:"points"`
	Trials     int       `json:"trials"`
	Workers    int       `json:"workers"`
	Seed       uint64    `json:"seed"`
	Engine     string    `json:"engine"`
	Extra      string    `json:"extra,omitempty"`
	Stop       StopRule  `json:"stop"`
}

func marshalSpec(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Spec contains only scalars and a float slice; Marshal cannot
		// fail on it.
		panic(fmt.Sprintf("sweep: spec digest: %v", err))
	}
	return b
}

// Digest returns the spec's digest under FormatVersion (see DigestBytes).
// Checkpoints store it; Resume rejects a checkpoint whose digest differs.
func (s Spec) Digest() string { return DigestBytes(s.canonical()) }

// PointResult is the outcome of one sweep point.
type PointResult struct {
	Index int `json:"index"`
	// Ests are the point's estimates (some experiments measure several
	// quantities per point); each carries its own trial count.
	Ests []stats.Bernoulli `json:"ests"`
	// Partial marks a point interrupted mid-estimate. Partial points are
	// reported for display but never checkpointed.
	Partial bool `json:"partial,omitempty"`
	// Stopped marks a point ended early by the StopRule.
	Stopped bool `json:"stopped,omitempty"`
}

// Checkpoint is the on-disk resume state: the spec (and its digest) plus
// every fully completed point, and — when the run carried one — the
// manifest of the process that wrote it, so the numbers in a resumed table
// stay attributable to the exact binary and configuration that produced
// each point.
type Checkpoint struct {
	Digest  string        `json:"digest"`
	Spec    Spec          `json:"spec"`
	Done    []PointResult `json:"done"`
	SavedAt time.Time     `json:"saved_at"`
	// Metrics is the telemetry snapshot covering exactly the points in
	// Done: it is captured at point boundaries only, so counters like
	// sim.trials conserve exactly against the checkpointed estimates. A
	// resumed run seeds its own metrics from this baseline, making merged
	// per-job metrics survive kill-and-restart bit-consistently with
	// results. The digest covers only Spec, so checkpoints written before
	// this field existed still resume cleanly.
	Metrics  *telemetry.Snapshot `json:"metrics,omitempty"`
	Manifest *telemetry.Manifest `json:"manifest,omitempty"`
}

// Save writes the checkpoint atomically and durably through the direct
// OS filesystem; see SaveFS.
func (c *Checkpoint) Save(path string) error { return c.SaveFS(chaos.OS, path) }

// SaveFS writes the checkpoint atomically and durably through fsys
// (chaos.WriteFileAtomic): a crash mid-write leaves the previous
// checkpoint intact; a crash after the rename leaves the new one. There
// is no window in which path names a truncated file, and a successful
// save reclaims stale temp files a crashed earlier writer left behind.
func (c *Checkpoint) SaveFS(fsys chaos.FS, path string) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: marshal checkpoint: %w", err)
	}
	if err := chaos.WriteFileAtomic(fsys, path, append(b, '\n')); err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	return nil
}

// CorruptError reports a checkpoint file that exists but cannot be
// trusted: not valid JSON (torn or foreign file), or internally
// inconsistent with its own recorded digest. The safe user action is to
// delete the file and rerun without -resume.
type CorruptError struct {
	// Path is the checkpoint file.
	Path string
	// Err is the parse error, nil for a digest inconsistency.
	Err error
	// SpecDigest and RecordedDigest are set — as full-length hex digests,
	// suitable for programmatic comparison — when the JSON parsed but the
	// digest did not match the spec. Only the Error string truncates them
	// for display.
	SpecDigest, RecordedDigest string
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("sweep: corrupt checkpoint %s (not valid JSON — truncated write or wrong file?): %v", e.Path, e.Err)
	}
	return fmt.Sprintf("sweep: checkpoint %s is internally inconsistent (spec digest %.12s, recorded %.12s); delete it and rerun without -resume",
		e.Path, e.SpecDigest, e.RecordedDigest)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Load reads a checkpoint through the direct OS filesystem; see LoadFS.
func Load(path string) (*Checkpoint, error) { return LoadFS(chaos.OS, path) }

// LoadFS reads a checkpoint through fsys and verifies first that it
// parses and then that its internal digest matches its embedded spec —
// rejecting truncated or otherwise corrupt files with a *CorruptError
// (never a panic), and files hand-edited out of sync with their digest.
// A checkpoint written under an older FormatVersion loads; see formatOf.
func LoadFS(fsys chaos.FS, path string) (*Checkpoint, error) {
	if fsys == nil {
		fsys = chaos.OS
	}
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, &CorruptError{Path: path, Err: err}
	}
	// Earlier versions are hashed only when the current one mismatches.
	if got := c.Spec.Digest(); got != c.Digest && c.formatOf() == 0 {
		return nil, &CorruptError{Path: path, SpecDigest: got, RecordedDigest: c.Digest}
	}
	return &c, nil
}

// formatOf returns the format version under which the checkpoint's digest
// matches its spec, or 0 if none does. A checkpoint of an earlier version
// is stale, not corrupt: LoadFS returns it, and resuming it fails as a
// *DigestMismatchError because its digest never equals a current one.
func (c *Checkpoint) formatOf() int {
	if c.Spec.Digest() == c.Digest {
		return FormatVersion
	}
	canonical, legacy := c.Spec.canonical(), marshalSpec(legacySpec(c.Spec))
	for v := FormatVersion - 1; v >= 1; v-- {
		b := canonical
		if v <= 2 {
			b = legacy
		}
		if digestAt(v, b) == c.Digest {
			return v
		}
	}
	return 0
}

// PointFunc computes the estimates for sweep point pt over trials
// [start, start+trials) of each, start a multiple of sim.BlockTrials.
// Implementations must address their randomness by trial index, as sim's
// harness does, so chunks [0, m) and [m, n) reproduce the fixed n-trial
// run bit-for-bit, and must return whatever partial estimates they
// accumulated alongside a cancellation error.
type PointFunc func(ctx context.Context, pt, start, trials int) ([]stats.Bernoulli, error)

// Runner drives one sweep.
type Runner struct {
	Spec Spec
	// Point computes one point (or one chunk of one, under a StopRule).
	Point PointFunc
	// CheckpointPath enables checkpointing when non-empty: the file is
	// rewritten atomically after every completed point and once more
	// when the sweep ends or is interrupted.
	CheckpointPath string
	// Resume loads CheckpointPath before running and skips its completed
	// points. The checkpoint's digest must match Spec's.
	Resume bool
	// Progress, when non-nil, receives one human-readable line per point.
	Progress io.Writer

	// Metrics, when non-nil, receives sweep counters and timing
	// histograms (points done, per-point wall time, checkpoint write
	// latency, early stops) and is attached to the context handed to
	// Point, so the engines underneath report into the same registry.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives one structured JSONL event per sweep
	// transition: spec, point_resumed, point_done, early_stop,
	// checkpoint, sweep_done.
	Trace *telemetry.Trace
	// Manifest, when non-nil, is stamped with the spec digest and
	// embedded in every checkpoint written.
	Manifest *telemetry.Manifest
	// Span, when set, tags every trace event with causal span IDs:
	// sweep-level events carry Span itself, per-point events carry
	// Span.Child("p<index>"). The zero Span emits no span fields.
	Span telemetry.Span
	// OnPoint, when non-nil, is called after every point that enters the
	// outcome — computed, resumed from checkpoint (resumed=true), or the
	// trailing partial of an interrupted run (p.Partial). Called from the
	// sweep goroutine; keep it fast and do not call back into the Runner.
	OnPoint func(p PointResult, resumed bool)

	// FS is the filesystem all checkpoint I/O goes through; nil uses the
	// direct OS filesystem. Tests and the -chaos flag install
	// fault-injecting filesystems here.
	FS chaos.FS
	// Retry governs checkpoint write retries: transient failures (a
	// flaky Sync, an injected fault) back off and retry within the
	// policy's attempt and time budget; only when the policy is
	// exhausted does the sweep fail — loudly, with the last good
	// checkpoint intact on disk. The zero value is the chaos package's
	// default policy (4 attempts, jittered exponential backoff, 2s
	// budget).
	Retry chaos.Policy
}

// DigestMismatchError reports a resume attempt against a checkpoint
// written by a different sweep spec. It is deliberate and loud: silently
// restarting from scratch (or worse, mixing results across specs) would
// corrupt the statistics. The fix is user-actionable — rerun with the
// exact original flags, or delete the checkpoint to start fresh.
type DigestMismatchError struct {
	// Path is the checkpoint file.
	Path string
	// CheckpointDigest is the digest recorded in the checkpoint;
	// SpecDigest is this run's.
	CheckpointDigest, SpecDigest string
}

func (e *DigestMismatchError) Error() string {
	return fmt.Sprintf("sweep: checkpoint %s belongs to a different sweep (digest %.12s, this spec %.12s); refusing to mix results — rerun with the exact original spec (experiment, grid, trials, seed, engine, stop rule) to resume, or delete the checkpoint to start fresh",
		e.Path, e.CheckpointDigest, e.SpecDigest)
}

func (r *Runner) fs() chaos.FS {
	if r.FS == nil {
		return chaos.OS
	}
	return r.FS
}

// Outcome is what a sweep produced: completed points in index order,
// possibly followed by one trailing partial point if the run was
// interrupted mid-point.
type Outcome struct {
	Done     []PointResult
	Complete bool
	Resumed  int // points loaded from the checkpoint instead of computed
	// Metrics is the point-boundary telemetry snapshot covering exactly
	// the non-partial points in Done: the resumed baseline (if any) merged
	// with this run's registry as of the last completed point. Nil when
	// the Runner had no Metrics registry and no resumed baseline.
	Metrics *telemetry.Snapshot
}

// Run executes the sweep under ctx. On cancellation (or a trial panic) it
// flushes a final checkpoint of the completed points and returns the
// partial Outcome together with the error, so callers can render what
// exists and exit cleanly.
func (r *Runner) Run(ctx context.Context) (*Outcome, error) {
	digest := r.Spec.Digest()
	if r.Manifest != nil {
		r.Manifest.SpecDigest = digest
	}
	if r.Metrics != nil {
		// The engines under Point resolve their registry from the context,
		// so attaching it here is what makes sim/lanes counters land in the
		// same registry as the sweep's own.
		ctx = telemetry.NewContext(ctx, r.Metrics)
	}
	r.Trace.EmitSpan("spec", r.Span, map[string]any{
		"experiment": r.Spec.Experiment,
		"digest":     digest,
		"points":     r.Spec.Points,
		"trials":     r.Spec.Trials,
		"engine":     r.Spec.Engine,
	})
	// base is the metrics baseline inherited from a resumed checkpoint: the
	// snapshot covering exactly the points being resumed. boundary is the
	// snapshot covering exactly the non-partial points done so far — base
	// merged with this run's registry, recomputed only at point boundaries
	// so an interrupted point's in-flight counters never leak into a
	// checkpoint (they re-run identically by seed after restart). That is
	// the whole conservation invariant: checkpoint.Metrics always accounts
	// for checkpoint.Done, nothing more, nothing less.
	var base telemetry.Snapshot
	haveBase := false
	resumed := make(map[int]PointResult)
	if r.Resume {
		if r.CheckpointPath == "" {
			return nil, errors.New("sweep: resume requested without a checkpoint path")
		}
		ck, err := LoadFS(r.fs(), r.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if ck.Digest != digest {
			return nil, &DigestMismatchError{Path: r.CheckpointPath, CheckpointDigest: ck.Digest, SpecDigest: digest}
		}
		for _, p := range ck.Done {
			if !p.Partial && p.Index >= 0 && p.Index < r.Spec.Points {
				resumed[p.Index] = p
			}
		}
		if ck.Metrics != nil {
			base = ck.Metrics.Clone()
			haveBase = true
		}
	}
	var boundary *telemetry.Snapshot
	if haveBase {
		b := base.Clone()
		boundary = &b
	}
	// capture takes the boundary after a completed point; now is the
	// registry's snapshot at that boundary.
	capture := func(now telemetry.Snapshot) {
		if r.Metrics == nil && !haveBase {
			return
		}
		s := base.Clone()
		if r.Metrics != nil {
			if err := s.Merge(now); err != nil {
				// Shape drift between baseline and this process should be
				// impossible (bucket bounds are compile-time constants);
				// keep the previous boundary rather than corrupt it.
				r.Metrics.Counter("sweep.metrics_merge_errors").Inc()
				r.Trace.EmitSpan("metrics_merge_error", r.Span, map[string]any{"error": err.Error()})
				return
			}
		}
		boundary = &s
	}

	out := &Outcome{}
	save := func() error {
		if r.CheckpointPath == "" {
			return nil
		}
		ck := &Checkpoint{Digest: digest, Spec: r.Spec, SavedAt: time.Now().UTC(), Metrics: boundary, Manifest: r.Manifest}
		for _, p := range out.Done {
			if !p.Partial {
				ck.Done = append(ck.Done, p)
			}
		}
		t0 := time.Now()
		pol := r.Retry
		userOnRetry := pol.OnRetry
		pol.OnRetry = func(attempt int, rerr error, delay time.Duration) {
			// Every retried checkpoint write is visible in telemetry, so
			// a run that limped through transient I/O faults says so.
			if r.Metrics != nil {
				r.Metrics.Counter("sweep.checkpoint_retries").Inc()
			}
			r.Trace.EmitSpan("checkpoint_retry", r.Span, map[string]any{
				"path": r.CheckpointPath, "attempt": attempt,
				"error": rerr.Error(), "backoff_seconds": delay.Seconds(),
			})
			if userOnRetry != nil {
				userOnRetry(attempt, rerr, delay)
			}
		}
		err := pol.Do(ctx, func() error { return ck.SaveFS(r.fs(), r.CheckpointPath) })
		wall := time.Since(t0).Seconds()
		if r.Metrics != nil {
			r.Metrics.Counter("sweep.checkpoint_writes").Inc()
			if err != nil {
				r.Metrics.Counter("sweep.checkpoint_failures").Inc()
			}
			r.Metrics.Histogram("sweep.checkpoint_seconds", telemetry.LatencyBuckets).Observe(wall)
		}
		r.Trace.EmitSpan("checkpoint", r.Span, map[string]any{
			"path": r.CheckpointPath, "points": len(ck.Done),
			"wall_seconds": wall, "ok": err == nil,
		})
		return err
	}

	// last holds the registry's counters at the previous point boundary,
	// from which each point_done event's ledger deltas are taken.
	var last map[string]int64
	if r.Metrics != nil {
		last = r.Metrics.Snapshot().Counters
	}
	for pt := 0; pt < r.Spec.Points; pt++ {
		pspan := r.Span.Child(fmt.Sprintf("p%d", pt))
		if p, ok := resumed[pt]; ok {
			out.Done = append(out.Done, p)
			out.Resumed++
			r.progressf("point %d/%d: resumed from checkpoint", pt+1, r.Spec.Points)
			r.Trace.EmitSpan("point_resumed", pspan, map[string]any{"point": pt, "trials": estTrials(p.Ests)})
			if r.OnPoint != nil {
				r.OnPoint(p, true)
			}
			continue
		}
		t0 := time.Now()
		p, err := r.runPoint(ctx, pt, pspan)
		wall := time.Since(t0).Seconds()
		if r.Metrics != nil {
			r.Metrics.Histogram("sweep.point_seconds", telemetry.WallBuckets).Observe(wall)
			if err == nil {
				r.Metrics.Counter("sweep.points_done").Inc()
			}
		}
		fields := map[string]any{
			"point": pt, "wall_seconds": wall,
			"trials": estTrials(p.Ests), "successes": estSuccesses(p.Ests),
			"stopped": p.Stopped, "partial": p.Partial,
		}
		var now telemetry.Snapshot
		if err == nil && r.Metrics != nil {
			now = r.Metrics.Snapshot()
			fields["counters"] = ledgerDeltas(last, now.Counters)
			last = now.Counters
		}
		r.Trace.EmitSpan("point_done", pspan, fields)
		if err == nil {
			capture(now)
		}
		if len(p.Ests) > 0 || err == nil {
			out.Done = append(out.Done, p)
			if r.OnPoint != nil {
				r.OnPoint(p, false)
			}
		}
		if err != nil {
			r.progressf("point %d/%d: interrupted (%v)", pt+1, r.Spec.Points, err)
			if serr := save(); serr != nil {
				err = errors.Join(err, serr)
			}
			r.Trace.EmitSpan("sweep_done", r.Span, map[string]any{"complete": false, "points": len(out.Done), "resumed": out.Resumed})
			out.Metrics = boundary
			return out, err
		}
		r.progressf("point %d/%d: done%s", pt+1, r.Spec.Points, stoppedNote(p))
		if serr := save(); serr != nil {
			out.Metrics = boundary
			return out, serr
		}
	}
	out.Complete = true
	r.Trace.EmitSpan("sweep_done", r.Span, map[string]any{"complete": true, "points": len(out.Done), "resumed": out.Resumed})
	out.Metrics = boundary
	return out, nil
}

// ledgerCounters are the counters whose per-point share a completed
// point's point_done event carries under "counters": its trials, and on
// the lane engine its lane slots, walked lane slots and fault events;
// walked/slots is the point's walked share. Summed over a run's completed
// points they equal the run's final snapshot minus its baseline.
var ledgerCounters = []string{"sim.trials", "lanes.slots", "lanes.walked", "lanes.faults"}

// ledgerDeltas returns each ledger counter's change from from to to.
func ledgerDeltas(from, to map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(ledgerCounters))
	for _, name := range ledgerCounters {
		d[name] = to[name] - from[name]
	}
	return d
}

// estTrials and estSuccesses project an estimate slice for trace events,
// so per-point trial counts in the JSONL stream are diffable against the
// printed tables without re-deriving them from checkpoints.
func estTrials(ests []stats.Bernoulli) []int {
	out := make([]int, len(ests))
	for i, e := range ests {
		out[i] = e.Trials
	}
	return out
}

func estSuccesses(ests []stats.Bernoulli) []int {
	out := make([]int, len(ests))
	for i, e := range ests {
		out[i] = e.Successes
	}
	return out
}

func stoppedNote(p PointResult) string {
	if !p.Stopped || len(p.Ests) == 0 {
		return ""
	}
	return fmt.Sprintf(" (early stop at %d trials)", p.Ests[0].Trials)
}

// runPoint computes one point, in a single call when early stopping is
// off and in geometrically growing chunks of whole blocks when it is on.
func (r *Runner) runPoint(ctx context.Context, pt int, pspan telemetry.Span) (PointResult, error) {
	p := PointResult{Index: pt}
	rule := r.Spec.Stop
	if !rule.Enabled() {
		ests, err := r.Point(ctx, pt, 0, r.Spec.Trials)
		p.Ests = ests
		p.Partial = err != nil
		return p, err
	}

	ceiling := rule.MaxTrials
	if ceiling <= 0 {
		ceiling = r.Spec.Trials
	}
	floor := rule.MinTrials
	if floor <= 0 {
		floor = 1000
	}
	// Whole blocks keep every chunk's first trial on a block boundary.
	floor = (floor + sim.BlockTrials - 1) / sim.BlockTrials * sim.BlockTrials
	if floor > ceiling {
		floor = ceiling
	}
	chunkSize := floor
	for ran := 0; ran < ceiling; {
		n := chunkSize
		if n > ceiling-ran {
			n = ceiling - ran
		}
		ests, err := r.Point(ctx, pt, ran, n)
		if merged, merr := mergeEsts(p.Ests, ests); merr != nil {
			p.Partial = true
			return p, merr
		} else {
			p.Ests = merged
		}
		if err != nil {
			p.Partial = true
			return p, err
		}
		ran += n
		if ok, branch := rule.ConvergedBranch(p.Ests); ok && ran >= floor && ran < ceiling {
			p.Stopped = true
			if r.Metrics != nil {
				r.Metrics.Counter("sweep.early_stops").Inc()
			}
			// Record the Wilson half-width that let the rule fire and which
			// branch decided it, so every early-stop decision in the trace is
			// auditable against RelTol.
			r.Trace.EmitSpan("early_stop", pspan, map[string]any{
				"point": pt, "trials": ran, "branch": branch,
				"rel_halfwidth": rule.MaxRelHalfWidth(p.Ests), "reltol": rule.RelTol,
			})
			break
		}
		chunkSize *= 2
	}
	return p, nil
}

// mergeEsts pools chunk estimates element-wise.
func mergeEsts(acc, ests []stats.Bernoulli) ([]stats.Bernoulli, error) {
	if acc == nil {
		return ests, nil
	}
	if len(ests) != len(acc) {
		return acc, fmt.Errorf("sweep: point returned %d estimates, previous chunks returned %d", len(ests), len(acc))
	}
	for i := range acc {
		acc[i].Add(ests[i].Successes, ests[i].Trials)
	}
	return acc, nil
}

func (r *Runner) progressf(format string, args ...any) {
	if r.Progress == nil {
		return
	}
	fmt.Fprintf(r.Progress, "sweep %s: %s\n", r.Spec.Experiment, fmt.Sprintf(format, args...))
}
