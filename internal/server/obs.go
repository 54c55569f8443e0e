package server

import (
	"sync"
	"time"

	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// Per-job observability plane. Every execution attempt of a job runs
// against its own child telemetry.Registry; the sweep runner persists that
// registry's point-boundary snapshot inside the job's checkpoint, so
// metrics survive kill-and-restart bit-consistently with results. jobObs
// is the in-memory side: the live attempt registry, its checkpoint-derived
// baseline, progress counters, and the Wilson half-width trajectory that
// /jobs/{id}/progress serves. The snapshot obeys a conservation invariant:
// once a job is terminal, its trial counters equal the final result's
// trial counts exactly, however many times the process was killed.

// TrajectoryPoint is one completed sweep point's convergence datum, in
// completion order: the global point index, its primary estimate, and the
// 95% Wilson half-width at that point's final trial count.
type TrajectoryPoint struct {
	Point     int     `json:"point"`
	Trials    int     `json:"trials"`
	Rate      float64 `json:"rate"`
	HalfWidth float64 `json:"halfwidth"`
	// RelHalfWidth is HalfWidth/Rate, the quantity adaptive early stopping
	// compares against reltol; 0 when the rate itself is 0.
	RelHalfWidth float64 `json:"rel_halfwidth,omitempty"`
	// Stopped marks a point ended early by the job's StopRule.
	Stopped bool `json:"stopped,omitempty"`
}

// JobProgress is the live progress view served by GET /jobs/{id}/progress.
type JobProgress struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Tenant     string `json:"tenant"`
	Experiment string `json:"experiment"`
	// Attempts counts the execution attempts this process started: the
	// first run plus every retry and every resume after preemption.
	Attempts int `json:"attempts,omitempty"`
	// TrialsBudget is points × trials (the per-estimate budget); adaptive
	// early stopping can finish under it. ResumedPoints counts the points
	// the current attempt loaded from the checkpoint.
	PointsTotal   int   `json:"points_total"`
	PointsDone    int   `json:"points_done"`
	ResumedPoints int   `json:"resumed_points,omitempty"`
	TrialsBudget  int64 `json:"trials_budget"`
	TrialsDone    int64 `json:"trials_done"`
	// QueueWaitSeconds is how long the job last sat in the worker queue
	// before a pool worker claimed it (this process).
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// AvgPointSeconds and EtaSeconds derive from the observed per-point
	// wall-time distribution (including the resumed baseline). EtaSeconds
	// is 0 unless the job is running.
	AvgPointSeconds float64 `json:"avg_point_seconds,omitempty"`
	EtaSeconds      float64 `json:"eta_seconds,omitempty"`
	// PointWall is the per-point wall-time histogram
	// (sweep.point_seconds), merged across restarts.
	PointWall *telemetry.HistogramSnapshot `json:"point_wall_seconds,omitempty"`
	// Trajectory is the Wilson half-width trajectory in point completion
	// order.
	Trajectory []TrajectoryPoint `json:"trajectory,omitempty"`
}

// jobObs is a job's observability plane, created at admission. It has its
// own mutex so sweep goroutines can report points without touching the
// server lock; the server lock may be held while acquiring it, never the
// reverse. Its methods are no-ops on a nil receiver (a job terminal at
// replay has none).
type jobObs struct {
	mu         sync.Mutex
	enqueuedAt time.Time
	queueWait  float64
	attempts   int
	points     int
	resumed    int
	trials     int64
	trajectory []TrajectoryPoint

	// reg is the current attempt's live registry; base the metrics
	// snapshot loaded from the checkpoint at attempt start (covering the
	// points the attempt resumes); final the point-boundary snapshot the
	// attempt's outcome carried when it ended.
	reg   *telemetry.Registry
	base  *telemetry.Snapshot
	final *telemetry.Snapshot
}

// snapshotLocked returns the job's best metrics view: the exact final
// snapshot once an attempt ended, otherwise baseline ⊕ live registry
// (which may include an in-flight point's counters — a monitoring view,
// exact again at the next boundary). ok=false when the job has no data in
// this process.
func (o *jobObs) snapshotLocked() (telemetry.Snapshot, bool) {
	if o.final != nil {
		return *o.final, true
	}
	if o.reg == nil && o.base == nil {
		return telemetry.Snapshot{}, false
	}
	var s telemetry.Snapshot
	if o.base != nil {
		s = o.base.Clone()
	}
	if o.reg != nil {
		if err := s.Merge(o.reg.Snapshot()); err != nil {
			// Shape drift between baseline and live registry; serve the
			// baseline alone rather than nothing.
			return s, o.base != nil
		}
	}
	return s, true
}

func (o *jobObs) snapshot() (telemetry.Snapshot, bool) {
	if o == nil {
		return telemetry.Snapshot{}, false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.snapshotLocked()
}

func (o *jobObs) enqueued(at time.Time) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.enqueuedAt = at
}

// claimed records the queue→worker handoff and returns the queue wait.
func (o *jobObs) claimed(now time.Time) float64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.enqueuedAt.IsZero() {
		o.queueWait = now.Sub(o.enqueuedAt).Seconds()
	}
	return o.queueWait
}

// beginAttempt installs a fresh live registry and checkpoint baseline for
// one execution attempt. Progress counters reset: the attempt's resumed
// points re-report through onPoint, so a retried job never double-counts.
func (o *jobObs) beginAttempt(reg *telemetry.Registry, base *telemetry.Snapshot) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempts++
	o.points = 0
	o.resumed = 0
	o.trials = 0
	o.trajectory = nil
	o.reg = reg
	o.base = base
	o.final = nil
}

// onPoint books one completed (or resumed) point into the progress
// counters and Wilson trajectory.
func (o *jobObs) onPoint(p sweep.PointResult, resumed bool) {
	if o == nil || p.Partial {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.points++
	if resumed {
		o.resumed++
	}
	if len(p.Ests) == 0 {
		return
	}
	e := p.Ests[0]
	o.trials += int64(e.Trials)
	lo, hi := e.Wilson(1.96)
	tp := TrajectoryPoint{
		Point:     p.Index,
		Trials:    e.Trials,
		Rate:      e.Rate(),
		HalfWidth: (hi - lo) / 2,
		Stopped:   p.Stopped,
	}
	if tp.Rate > 0 {
		tp.RelHalfWidth = tp.HalfWidth / tp.Rate
	}
	o.trajectory = append(o.trajectory, tp)
}

// heartbeat returns a progress fingerprint for the live attempt: points
// done plus the total counter and histogram-observation mass of its live
// registry. Engines bump registry counters at every batch boundary, so
// any forward motion — even mid-point — moves the value; the watchdog
// treats *any change* (a fresh attempt resets the registry, so the value
// may also drop) as progress and only a flat reading as a stall.
func (o *jobObs) heartbeat() uint64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	v := uint64(o.attempts)<<32 + uint64(uint32(o.points))
	if o.reg != nil {
		snap := o.reg.Snapshot()
		for _, c := range snap.Counters {
			v += uint64(c)
		}
		for _, h := range snap.Histograms {
			v += uint64(h.Count)
		}
	}
	return v
}

// pointsDone returns the completed-point count of the current attempt.
func (o *jobObs) pointsDone() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.points
}

// requeued returns a preempted job to the queue: its next claim
// re-measures queue wait from now, and its attempt registry is dropped
// (the flushed checkpoint carries the authoritative snapshot the next
// attempt resumes from).
func (o *jobObs) requeued(at time.Time) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.enqueuedAt = at
	o.reg = nil
	o.base = nil
}

// finished records an attempt's exact point-boundary metrics snapshot
// (nil when the runner produced none).
func (o *jobObs) finished(final *telemetry.Snapshot) {
	if o == nil || final == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.final = final
	o.reg = nil
	o.base = nil
}

// JobMetrics returns the job's telemetry snapshot: the live attempt
// registry (with its checkpoint baseline) for a job running in this
// process, the exact outcome snapshot for one whose attempt ended, and
// the on-disk checkpoint snapshot for one this process never ran (e.g. a
// job already terminal at replay). Unknown IDs return ErrNotFound.
func (s *Server) JobMetrics(id string) (telemetry.Snapshot, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return telemetry.Snapshot{}, ErrNotFound
	}
	if snap, ok := j.obs.snapshot(); ok {
		return snap, nil
	}
	if ck, err := sweep.LoadFS(s.fs, s.checkpointPath(id)); err == nil && ck.Metrics != nil {
		return *ck.Metrics, nil
	}
	return telemetry.Snapshot{}, nil
}

// MetricsSnapshot is the server-wide aggregate telemetry view served by
// GET /metrics: the server's own registry (admission, queue, journal, and
// lifecycle series) merged with every terminal job's retired snapshot
// and the live views of all non-terminal jobs. Within one
// job it is exact at point boundaries; mid-point it may additionally show
// the in-flight point's counters.
func (s *Server) MetricsSnapshot() telemetry.Snapshot {
	s.mu.Lock()
	agg := s.cfg.Metrics.Snapshot()
	retired := s.retired.Clone()
	var live []*jobObs
	for _, id := range s.order {
		if j := s.jobs[id]; !j.state.Terminal() && j.obs != nil {
			live = append(live, j.obs)
		}
	}
	s.mu.Unlock()
	if err := agg.Merge(retired); err != nil {
		s.cfg.Metrics.Counter("server.obs_merge_errors").Inc()
	}
	for _, obs := range live {
		m, ok := obs.snapshot()
		if !ok {
			continue
		}
		if err := agg.Merge(m); err != nil {
			s.cfg.Metrics.Counter("server.obs_merge_errors").Inc()
		}
	}
	return agg
}

// Progress returns the job's live progress/ETA view. Unknown IDs return
// ErrNotFound.
func (s *Server) Progress(id string) (JobProgress, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobProgress{}, ErrNotFound
	}
	jp := JobProgress{
		ID: j.id, State: j.state, Tenant: j.spec.Tenant, Experiment: j.spec.Experiment,
		PointsTotal:  j.points,
		TrialsBudget: int64(j.points) * int64(j.spec.Trials),
	}
	o := j.obs
	s.mu.Unlock()

	if o == nil {
		// Job known only from the journal (terminal at replay): report
		// the status fields without live detail.
		return jp, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	jp.Attempts = o.attempts
	jp.PointsDone = o.points
	jp.ResumedPoints = o.resumed
	jp.TrialsDone = o.trials
	jp.QueueWaitSeconds = o.queueWait
	jp.Trajectory = o.trajectory
	if snap, ok := o.snapshotLocked(); ok {
		if h, hok := snap.Histograms["sweep.point_seconds"]; hok && h.Count > 0 {
			jp.PointWall = &h
			jp.AvgPointSeconds = h.Sum / float64(h.Count)
			if remaining := jp.PointsTotal - jp.PointsDone; remaining > 0 && jp.State == StateRunning {
				jp.EtaSeconds = float64(remaining) * jp.AvgPointSeconds
			}
		}
	}
	return jp, nil
}
