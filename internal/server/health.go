package server

import (
	"strconv"
	"time"
)

// Health state machine. /healthz is no longer a boolean: the server
// reports healthy | degraded | draining | failed, driven by queue depth,
// recent shedding, and watchdog trips. Transitions are exported as the
// server.health_state gauge (0..3 in that order) and health_transition
// trace events, so a fleet scheduler can rotate traffic away from a
// degrading instance before it starts refusing work.

// HealthState is the server's coarse condition.
type HealthState string

const (
	HealthHealthy  HealthState = "healthy"
	HealthDegraded HealthState = "degraded"
	HealthDraining HealthState = "draining"
	HealthFailed   HealthState = "failed"
)

// healthRank orders states for the gauge: higher is worse.
func healthRank(h HealthState) int {
	switch h {
	case HealthDegraded:
		return 1
	case HealthDraining:
		return 2
	case HealthFailed:
		return 3
	default:
		return 0
	}
}

// Health is the /healthz body.
type Health struct {
	Status HealthState `json:"status"`
	Reason string      `json:"reason,omitempty"`
	// QueueDepth counts queued jobs across all classes; ActiveJobs the
	// admitted-but-unfinished jobs.
	QueueDepth int `json:"queue_depth"`
	ActiveJobs int `json:"active_jobs"`
	// JobsShed and WatchdogTrips are lifetime counters; RecentShed /
	// RecentStall report whether either fired within the degraded
	// window, the signals (besides queue depth) that degrade the state.
	JobsShed      int64 `json:"jobs_shed,omitempty"`
	WatchdogTrips int64 `json:"watchdog_trips,omitempty"`
	RecentShed    bool  `json:"recent_shed,omitempty"`
	RecentStall   bool  `json:"recent_stall,omitempty"`
}

// degradedWindow is how long one shed or watchdog trip keeps the server
// reporting degraded.
const degradedWindow = 30 * time.Second

// computeHealthLocked derives the current state and its reason.
func (s *Server) computeHealthLocked(now time.Time) (HealthState, string) {
	switch {
	case s.fatalErr != nil:
		return HealthFailed, s.fatalErr.Error()
	case s.draining:
		return HealthDraining, "server is draining"
	}
	depth := s.sched.depth()
	bound := s.cfg.DegradedQueueDepth
	if bound <= 0 {
		bound = 8 * s.cfg.PoolWorkers
	}
	switch {
	case depth > bound:
		return HealthDegraded, "queue depth " + strconv.Itoa(depth) + " exceeds " + strconv.Itoa(bound)
	case !s.lastShed.IsZero() && now.Sub(s.lastShed) < degradedWindow:
		return HealthDegraded, "shed a job within the last " + degradedWindow.String()
	case !s.lastStall.IsZero() && now.Sub(s.lastStall) < degradedWindow:
		return HealthDegraded, "watchdog tripped within the last " + degradedWindow.String()
	}
	return HealthHealthy, ""
}

// refreshHealthLocked recomputes the state, updating the gauge and
// emitting a health_transition trace event on change.
func (s *Server) refreshHealthLocked(now time.Time) {
	st, reason := s.computeHealthLocked(now)
	if st == s.health {
		return
	}
	from := s.health
	s.health = st
	s.healthReason = reason
	s.cfg.Metrics.Gauge("server.health_state").Set(float64(healthRank(st)))
	s.cfg.Metrics.Counter("server.health_transitions").Inc()
	s.cfg.Trace.Emit("health_transition", map[string]any{
		"from": string(from), "to": string(st), "reason": reason,
	})
	s.logf("health: %s -> %s (%s)", from, st, reason)
}

// Health returns the server's current health view.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshHealthLocked(time.Now())
	h := Health{
		Status: s.health, Reason: s.healthReason,
		QueueDepth: s.sched.depth(), ActiveJobs: s.active,
		JobsShed:      s.cfg.Metrics.Counter("server.jobs_shed").Load(),
		WatchdogTrips: s.cfg.Metrics.Counter("server.watchdog_trips").Load(),
	}
	now := time.Now()
	h.RecentShed = !s.lastShed.IsZero() && now.Sub(s.lastShed) < degradedWindow
	h.RecentStall = !s.lastStall.IsZero() && now.Sub(s.lastStall) < degradedWindow
	return h
}
