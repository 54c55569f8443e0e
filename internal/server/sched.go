package server

import (
	"context"
	"fmt"
	"time"
)

// Multi-class job scheduler. The single FIFO of earlier revisions
// becomes one FIFO per priority class plus a deterministic weighted
// round-robin pick. The scheduler decides only *order and admission* —
// never results: every point's seed derives from its global index and ε
// value alone, so the same spec produces bit-identical output whatever
// class it ran under or however often it was preempted. That invariance
// is what makes aggressive scheduling safe here, and it is pinned by
// TestPrioritySchedulingSeedStable.

// sched holds the per-class job queues. All access is under the owning
// Server's mutex.
type sched struct {
	queues [numClasses][]task
	// served counts claims in the current weighted round; when every
	// non-empty class has used its classWeights allotment, the round
	// resets.
	served [numClasses]int
}

// push appends a task to its class queue.
func (q *sched) push(cls int, t task) {
	q.queues[cls] = append(q.queues[cls], t)
}

// pop claims the next job under the weighted round-robin policy:
// highest-priority class with round credit left wins; if every non-empty
// class has exhausted its credit the round resets (so a lone bulk queue
// still drains at full speed — the scheduler is work-conserving).
func (q *sched) pop() (task, bool) {
	for pass := 0; pass < 2; pass++ {
		for c := 0; c < numClasses; c++ {
			if len(q.queues[c]) == 0 {
				continue
			}
			if q.served[c] >= classWeights[c] {
				continue
			}
			q.served[c]++
			t := q.queues[c][0]
			q.queues[c] = q.queues[c][1:]
			return t, true
		}
		// Either all queues are empty, or every non-empty class spent
		// its allotment; reset the round and try once more.
		q.served = [numClasses]int{}
	}
	return task{}, false
}

// depth is the total number of queued jobs.
func (q *sched) depth() int {
	n := 0
	for c := 0; c < numClasses; c++ {
		n += len(q.queues[c])
	}
	return n
}

// depthThrough counts queued jobs in classes 0..cls — the work that
// will be scheduled at or before class cls's next claim, the quantity
// deadline-aware admission estimates queue wait from.
func (q *sched) depthThrough(cls int) int {
	n := 0
	for c := 0; c <= cls && c < numClasses; c++ {
		n += len(q.queues[c])
	}
	return n
}

// attemptCtl tracks one live job execution attempt: its cancel-with-
// cause hook (the lever the watchdog and the preemption policy pull) and
// the watchdog's last observed heartbeat. Guarded by the Server mutex.
type attemptCtl struct {
	j       *job
	cls     int
	cancel  context.CancelCauseFunc
	started time.Time

	// lastBeat/lastChange implement the stall detector: lastBeat is the
	// attempt's most recent heartbeat value (points done + telemetry
	// counter mass, any change in either direction counts as progress),
	// lastChange when it last moved.
	lastBeat   uint64
	lastChange time.Time
	// tripped/preempted latch the first watchdog or preemption strike so
	// an attempt is cancelled at most once for each reason.
	tripped   bool
	preempted bool
}

// PreemptError is the cause a bulk job attempt is cancelled with when
// queued interactive work needs its pool slot. It is not retryable under
// the job retry policy: the attempt ends at its next checkpoint boundary
// and finished re-enqueues the job — already-computed points live in the
// checkpoint, so the resumed attempt recomputes nothing and the final
// result stays bit-identical.
type PreemptError struct {
	Job string
}

func (e *PreemptError) Error() string {
	return fmt.Sprintf("server: job %s preempted at checkpoint boundary for queued interactive work", e.Job)
}

// StallError is the cause the watchdog cancels a stuck job attempt with:
// no point or telemetry progress for longer than the configured stall
// budget. It carries point provenance and is retryable under the job
// retry policy, so a transiently wedged job re-runs from its checkpoint
// instead of silently eating its deadline.
type StallError struct {
	Job string
	// PointsDone is how many points the stalled attempt had completed
	// when it went quiet; the retry resumes after them.
	PointsDone int
	// Idle is how long the heartbeat had been flat when the watchdog
	// tripped; Budget the configured allowance it exceeded.
	Idle   time.Duration
	Budget time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("server: job %s stalled: no progress for %v (budget %v) after %d points",
		e.Job, e.Idle.Round(time.Millisecond), e.Budget, e.PointsDone)
}

// registerAttempt books a live attempt with the scheduler/watchdog plane.
func (s *Server) registerAttempt(ctl *attemptCtl) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	ctl.started = now
	ctl.lastChange = now
	ctl.lastBeat = ctl.j.obs.heartbeat()
	s.attempts[ctl] = struct{}{}
}

func (s *Server) unregisterAttempt(ctl *attemptCtl) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.attempts, ctl)
}

// preemptLocked cancels running bulk attempts — newest first, so the
// least checkpoint-sunk work yields — while queued interactive jobs
// outnumber free pool slots. Preemption stops at the checkpoint
// boundary: the cancelled attempt flushes, re-queues, and resumes later
// with zero recomputation.
func (s *Server) preemptLocked() {
	need := len(s.sched.queues[0])
	if need == 0 {
		return
	}
	idle := s.cfg.PoolWorkers - len(s.attempts)
	for need > idle {
		var victim *attemptCtl
		for ctl := range s.attempts {
			if ctl.cls != classIndex(PriorityBulk) || ctl.preempted || ctl.j.state.Terminal() {
				continue
			}
			if victim == nil || ctl.started.After(victim.started) {
				victim = ctl
			}
		}
		if victim == nil {
			return
		}
		victim.preempted = true
		s.cfg.Metrics.Counter("server.shard_preemptions").Inc()
		victim.j.emit("attempt_preempting", victim.j.span.Tag(map[string]any{
			"job": victim.j.id, "queued_interactive": need,
		}))
		s.logf("preempting job %s (bulk) for %d queued interactive job(s)", victim.j.id, need)
		victim.cancel(&PreemptError{Job: victim.j.id})
		idle++
	}
}
