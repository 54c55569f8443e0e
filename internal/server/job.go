// Package server is the sweep-as-a-service runtime: a crash-safe job
// server that accepts Monte Carlo sweep specs over HTTP, runs each job as
// one checkpointed sweep on a bounded worker pool, and streams results
// through the existing checkpoint, JSONL-trace, and telemetry machinery.
//
// Robustness is the design center, mirroring the paper's own claim that a
// computation must survive faults in its machinery:
//
//   - every job-state transition is an fsynced record in an append-only
//     journal written through the chaos.FS seam, so a SIGKILL at any
//     instant leaves a replayable prefix: on restart the server replays
//     the journal and resumes every in-flight job from its sweep
//     checkpoint, bit-identically to an uninterrupted run;
//   - admission is bounded and typed: a full queue or an exhausted
//     per-tenant quota produces a *RejectError (HTTP 429), never a stall;
//   - job execution isolates trial panics via sim.TrialPanicError
//     provenance and retries them under a budgeted chaos.Policy;
//   - jobs carry deadlines, and SIGTERM drains gracefully — stop
//     admitting, checkpoint running jobs, flush traces, exit clean.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"revft/internal/stats"
	"revft/internal/sweep"
)

// JobSpec is what a client submits: one sweep experiment, its grid and
// trial budget, and how to run it. The zero values of Workers and Engine
// normalize to 1 and "scalar".
type JobSpec struct {
	// Tenant attributes the job for quota accounting; empty normalizes
	// to "default".
	Tenant string `json:"tenant,omitempty"`
	// Experiment names a registered sweep driver (the standard binary
	// registers recovery, levels, local, and adder).
	Experiment string `json:"experiment"`
	// GMin/GMax/Points define the log-spaced gate-error grid.
	GMin   float64 `json:"gmin"`
	GMax   float64 `json:"gmax"`
	Points int     `json:"points"`
	// Trials is the Monte Carlo budget per estimate per point.
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
	// Engine selects the execution engine (scalar|lanes|lanes256|lanes512
	// for the standard drivers).
	Engine string `json:"engine,omitempty"`
	// MaxLevel and Bits parameterize the levels and adder experiments.
	MaxLevel int `json:"maxlevel,omitempty"`
	Bits     int `json:"bits,omitempty"`
	// Shards is accepted on the wire and ignored: a job runs as one sweep.
	// Older clients and journal records carry it, and decoding refuses
	// unknown fields, so it stays; normalize clears it.
	Shards int `json:"shards,omitempty"`
	// Workers is the engine worker count inside each estimate.
	Workers int `json:"workers,omitempty"`
	// RelTol/ZeroScale enable adaptive early stopping per point, exactly
	// as revft-mc -reltol/-zeroscale.
	RelTol    float64 `json:"reltol,omitempty"`
	ZeroScale float64 `json:"zeroscale,omitempty"`
	// TimeoutSeconds, when positive, bounds the job's running time; a
	// job over its deadline fails with a journaled "deadline exceeded".
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// NoCache opts this submission out of the result cache entirely: no
	// lookup, no near-miss reuse, no store-back. The field participates
	// in the digest (a bypassed job is a genuinely different request).
	NoCache bool `json:"nocache,omitempty"`
	// Priority is the job's scheduling class: "interactive", "batch"
	// (the default), or "bulk". It shapes only scheduling — admission
	// bounds, queue order, shedding, and preemption — never results:
	// estimates derive from the swept value and trial index alone, so a
	// sweep computes bit-identical output whatever class it ran under.
	// Like Workers, it is journaled but excluded from Digest.
	Priority string `json:"priority,omitempty"`
}

// Priority classes, highest to lowest scheduling weight.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
	PriorityBulk        = "bulk"
)

// numClasses is the number of priority classes; classIndex maps a
// normalized priority onto its queue index (0 = most urgent).
const numClasses = 3

// classWeights is the scheduler's weighted round-robin allotment: out of
// every 12 job claims under contention, interactive gets 8, batch 3,
// bulk 1. Empty classes donate their share (work-conserving), and every
// non-empty class is served each round (starvation-free).
var classWeights = [numClasses]int{8, 3, 1}

// classNames indexes class labels for metrics and logs.
var classNames = [numClasses]string{PriorityInteractive, PriorityBatch, PriorityBulk}

func classIndex(priority string) int {
	switch priority {
	case PriorityInteractive:
		return 0
	case PriorityBulk:
		return 2
	default:
		return 1
	}
}

// normalize fills the defaulted fields in place.
func (s *JobSpec) normalize() {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Engine == "" {
		s.Engine = "scalar"
	}
	s.Shards = 0
	if s.Workers <= 0 {
		s.Workers = 1
	}
	if s.Priority == "" {
		s.Priority = PriorityBatch
	}
}

// validTenant reports whether a (normalized) tenant name stays within the
// charset [A-Za-z0-9._-] and 64 bytes — the bound that keeps tenant-
// derived metric names and quota keys from absorbing arbitrary input.
func validTenant(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// MaxPoints bounds a job's grid. Validate refuses more points before
// anything is sized by them: the grid is built on submit (near-miss
// lookup) and again under the server mutex when the job is activated.
const MaxPoints = 1024

// Validate checks the driver-independent fields; experiment-specific
// validation belongs to the Driver.
func (s JobSpec) Validate() error {
	switch {
	case s.Experiment == "":
		return fmt.Errorf("experiment is required")
	case !validTenant(s.Tenant):
		return fmt.Errorf("tenant %q: need 1-64 characters from [A-Za-z0-9._-]", s.Tenant)
	case !finite(s.GMin, s.GMax, s.RelTol, s.ZeroScale, s.TimeoutSeconds):
		// NaN passes every comparison below, and Digest cannot encode a
		// non-finite value.
		return fmt.Errorf("gmin %v, gmax %v, reltol %v, zeroscale %v, timeout_seconds %v: need finite values",
			s.GMin, s.GMax, s.RelTol, s.ZeroScale, s.TimeoutSeconds)
	case s.Points < 1 || s.Points > MaxPoints:
		return fmt.Errorf("points %d: need 1..%d", s.Points, MaxPoints)
	case s.Trials < 1:
		return fmt.Errorf("trials %d: need at least 1", s.Trials)
	case s.GMin <= 0 || s.GMax <= 0:
		return fmt.Errorf("gmin %v, gmax %v: gate error rates must be positive", s.GMin, s.GMax)
	case s.GMax > 1:
		return fmt.Errorf("gmax %v: gate error rate cannot exceed 1", s.GMax)
	case s.GMin > s.GMax:
		return fmt.Errorf("gmin %v exceeds gmax %v", s.GMin, s.GMax)
	case s.Points == 1 && s.GMin != s.GMax:
		return fmt.Errorf("points 1 needs gmin == gmax (got %v, %v)", s.GMin, s.GMax)
	case s.RelTol < 0:
		return fmt.Errorf("reltol %v: need 0 (off) or positive", s.RelTol)
	case s.ZeroScale < 0:
		return fmt.Errorf("zeroscale %v: need 0 (off) or positive", s.ZeroScale)
	case s.ZeroScale > 0 && s.RelTol == 0:
		return fmt.Errorf("zeroscale requires reltol")
	case s.TimeoutSeconds < 0:
		return fmt.Errorf("timeout_seconds %v: need 0 (none) or positive", s.TimeoutSeconds)
	case s.Priority != PriorityInteractive && s.Priority != PriorityBatch && s.Priority != PriorityBulk:
		// Garbage priorities are refused at validation, before any
		// metric or queue ever keys on the string, so hostile values
		// cannot mint new metric series or scheduler classes.
		return fmt.Errorf("priority %q: need interactive, batch, or bulk", s.Priority)
	}
	return nil
}

// finite reports whether every x is neither NaN nor infinite.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Grid returns the job's log-spaced gate-error grid.
func (s JobSpec) Grid() []float64 { return stats.LogSpace(s.GMin, s.GMax, s.Points) }

// Digest returns the digest of the spec's canonical JSON encoding (after
// normalization) under sweep.FormatVersion — see sweep.DigestBytes — the
// identity job IDs, cache entries, and checkpoint specs derive from.
func (s JobSpec) Digest() string {
	s.normalize()
	// Priority and Workers shape scheduling, never results: specs
	// differing only in them share one digest and one cache entry.
	s.Priority, s.Workers = "", 0
	b, err := json.Marshal(s)
	if err != nil {
		// JobSpec holds only scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("server: spec digest: %v", err))
	}
	return sweep.DigestBytes(b)
}

// State is a job's lifecycle position. Transitions are journaled:
// queued → running → done | failed | cancelled (cancellation is also
// legal from queued).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the client-visible view of a job.
type JobStatus struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Experiment  string    `json:"experiment"`
	Priority    string    `json:"priority,omitempty"`
	State       State     `json:"state"`
	Error       string    `json:"error,omitempty"`
	Points      int       `json:"points"`
	Trials      int       `json:"trials"`
	Resumed     bool      `json:"resumed,omitempty"`
	SpecDigest  string    `json:"spec_digest"`
	SubmittedAt time.Time `json:"submitted_at"`
	// Cache reports how the result cache treated this submission: "hit"
	// (served entirely from cache, terminal at birth), "miss" (computed
	// — possibly with some points grafted from a near-miss entry, see
	// ReusedPoints), "bypass" (spec asked nocache), or empty when the
	// server runs without a cache.
	Cache string `json:"cache,omitempty"`
	// ReusedPoints counts result points served from a cached superset
	// entry instead of computed; Points counts only computed points.
	ReusedPoints int `json:"reused_points,omitempty"`
}

// ResultPoint is one completed sweep point in a job result, in global
// point-index order.
type ResultPoint struct {
	Index   int               `json:"index"`
	Ests    []stats.Bernoulli `json:"ests"`
	Stopped bool              `json:"stopped,omitempty"`
}

// Result is the merged outcome of a completed job, written atomically to
// result.json in the job directory. It contains nothing wall-clock or
// identity dependent — keyed by spec digest, not job ID — so for a fixed
// spec the serialized result is bit-identical whether the job ran
// uninterrupted, limped through kills and restarts, or was served from
// the result cache by a different job entirely.
type Result struct {
	Experiment string        `json:"experiment"`
	SpecDigest string        `json:"spec_digest"`
	Grid       []float64     `json:"grid"`
	Points     []ResultPoint `json:"points"`
}

// Rejection codes for RejectError.Code.
const (
	CodeInvalidSpec       = "invalid_spec"
	CodeUnknownExperiment = "unknown_experiment"
	CodeDraining          = "draining"
	CodeQueueFull         = "queue_full"
	CodeClassQueueFull    = "class_queue_full"
	CodeDeadlineUnmeet    = "deadline_unmeetable"
	CodeTenantJobQuota    = "tenant_job_quota"
	CodeTenantTrialQuota  = "tenant_trial_quota"
	CodeServerFailed      = "server_failed"
)

// RejectError is the typed admission rejection: a submission the server
// deliberately refused, with a machine-readable code and the HTTP status
// it maps to. Overload and quota exhaustion are 429s the client should
// back off from; they are never silent queue stalls.
type RejectError struct {
	Code   string `json:"error"`
	Reason string `json:"reason"`
	Status int    `json:"-"`
	// RetryAfterSeconds, when positive, is the server's own estimate of
	// when a retry could succeed; it becomes the Retry-After header on
	// 429/503 responses (which carry one even when this is 0 — see
	// writeError for the defaults).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("server: submission rejected (%s): %s", e.Code, e.Reason)
}

func reject(code string, status int, format string, args ...any) *RejectError {
	return &RejectError{Code: code, Status: status, Reason: fmt.Sprintf(format, args...)}
}

// retryAfter attaches a server-side retry hint (clamped to >= 1s).
func (e *RejectError) retryAfter(sec int) *RejectError {
	if sec < 1 {
		sec = 1
	}
	e.RetryAfterSeconds = sec
	return e
}
