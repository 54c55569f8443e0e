package server

import (
	"fmt"
	"time"
)

// Stuck-job watchdog and deadline shedder. A maintenance goroutine
// wakes on a fixed tick and, under the server mutex:
//
//   - scans every live job attempt's heartbeat — points done plus the
//     attempt's telemetry counter mass, which the engines bump at every
//     batch boundary — and cancels any attempt whose heartbeat has been
//     flat longer than Config.StallBudget with a typed *StallError. The
//     stall feeds the same budgeted retry path as a trial panic: the
//     next attempt resumes from the job's checkpoint, so a transient
//     hang costs one backoff, not the job.
//   - sheds queued jobs whose remaining deadline budget can no longer
//     cover even one observed job service time — failing them early
//     with a typed reason instead of burning a pool slot on work that is
//     already doomed to its deadline.
//   - recomputes the health state so degradation shows up on /healthz
//     within one tick even when no request touches the server.

// maintenance runs until the server drains or fails.
func (s *Server) maintenance(poll time.Duration) {
	defer s.wg.Done()
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case now := <-tick.C:
			s.mu.Lock()
			s.scanStallsLocked(now)
			s.shedDoomedLocked(now)
			s.refreshHealthLocked(now)
			s.mu.Unlock()
		}
	}
}

// scanStallsLocked trips the watchdog on attempts with a flat heartbeat.
func (s *Server) scanStallsLocked(now time.Time) {
	budget := s.cfg.StallBudget
	if budget <= 0 {
		return
	}
	for ctl := range s.attempts {
		if ctl.tripped || ctl.preempted {
			continue
		}
		beat := ctl.j.obs.heartbeat()
		if beat != ctl.lastBeat {
			ctl.lastBeat = beat
			ctl.lastChange = now
			continue
		}
		idle := now.Sub(ctl.lastChange)
		if idle <= budget {
			continue
		}
		ctl.tripped = true
		s.lastStall = now
		stall := &StallError{
			Job:        ctl.j.id,
			PointsDone: ctl.j.obs.pointsDone(),
			Idle:       idle, Budget: budget,
		}
		s.cfg.Metrics.Counter("server.watchdog_trips").Inc()
		fields := map[string]any{
			"job": ctl.j.id, "points_done": stall.PointsDone,
			"idle_seconds": idle.Seconds(), "budget_seconds": budget.Seconds(),
		}
		ctl.j.emit("attempt_stalled", ctl.j.span.Tag(fields))
		s.cfg.Trace.Emit("attempt_stalled", ctl.j.span.Tag(fields))
		s.logf("watchdog: job %s stalled (%v idle > %v budget); cancelling attempt",
			ctl.j.id, idle.Round(time.Millisecond), budget)
		ctl.cancel(stall)
	}
}

// shedDoomedLocked fails still-queued deadline-carrying jobs that can no
// longer meet their deadline, using the observed per-job service time.
func (s *Server) shedDoomedLocked(now time.Time) {
	est := s.jobSeconds
	if est <= 0 {
		return
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state != StateQueued || j.deadline.IsZero() {
			continue
		}
		if remaining := j.deadline.Sub(now).Seconds(); remaining < est {
			s.shedLocked(j, fmt.Sprintf(
				"shed while queued: remaining deadline budget %.2fs cannot cover estimated job time %.2fs",
				remaining, est))
		}
	}
}

// shedLocked fails a doomed job early with a typed reason. The terminal
// transition is an ordinary journaled failure, so replay needs no new
// record type and a restarted server agrees the job is dead.
func (s *Server) shedLocked(j *job, reason string) {
	s.lastShed = time.Now()
	s.cfg.Metrics.Counter("server.jobs_shed").Inc()
	s.cfg.Trace.Emit("job_shed", j.span.Tag(map[string]any{"job": j.id, "tenant": j.spec.Tenant, "reason": reason}))
	j.emit("job_shed", j.span.Tag(map[string]any{"job": j.id, "reason": reason}))
	s.finishLocked(j, StateFailed, reason)
}

// observeJobSecondsLocked folds one completed job's wall time into
// the EWMA service-time estimate that admission and shedding use.
// Callers hold the server mutex.
func (s *Server) observeJobSecondsLocked(wall float64) {
	if wall <= 0 {
		return
	}
	if s.jobSeconds == 0 {
		s.jobSeconds = wall
	} else {
		s.jobSeconds = 0.7*s.jobSeconds + 0.3*wall
	}
	s.cfg.Metrics.Gauge("server.shard_seconds_ewma").Set(s.jobSeconds)
}

// estimatedWaitLocked estimates how long a newly submitted job of class
// cls would wait before it completes: the jobs scheduled at or ahead of
// its class (queued through cls, plus everything running), divided across
// the pool, times the observed job service time, plus one service wave
// for the job itself. 0 when no estimate exists yet.
func (s *Server) estimatedWaitLocked(cls int) float64 {
	est := s.jobSeconds
	if est <= 0 {
		return 0
	}
	ahead := s.sched.depthThrough(cls) + len(s.attempts)
	waves := float64(ahead)/float64(s.cfg.PoolWorkers) + 1
	return waves * est
}
