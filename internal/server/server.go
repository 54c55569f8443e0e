package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"revft/internal/chaos"
	"revft/internal/resultcache"
	"revft/internal/sim"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// Driver resolves a validated, normalized JobSpec into the experiment's
// global sweep point function and total point count. grid is the job's
// gate-error grid (spec.Grid()), precomputed so drivers need not rederive
// it. Drivers must be pure: the same spec must always yield the same
// point function, because a restarted server re-resolves every in-flight
// job from its journaled spec and the resumed points must be
// bit-identical. exp.ShardableSweep provides the standard experiments.
type Driver func(spec JobSpec, grid []float64) (sweep.PointFunc, int, error)

// Config configures a Server. The zero values of the numeric fields pick
// the documented defaults.
type Config struct {
	// DataDir is the server's durable root: journal.jsonl plus one
	// jobs/<id>/ directory per job (shard checkpoints, trace, result).
	DataDir string
	// Drivers maps experiment names to their sweep drivers.
	Drivers map[string]Driver
	// PoolWorkers bounds the shard worker pool; <= 0 selects 4.
	PoolWorkers int
	// MaxActiveJobs bounds admitted-but-unfinished jobs across all
	// tenants — the admission queue. Submissions beyond it are rejected
	// with CodeQueueFull, never silently queued without bound. <= 0
	// selects 64.
	MaxActiveJobs int
	// MaxJobsPerTenant bounds one tenant's concurrent active jobs;
	// 0 means unlimited.
	MaxJobsPerTenant int
	// MaxTrialsPerTenant bounds one tenant's in-flight trial budget
	// (sum of points×trials over its active jobs); 0 means unlimited.
	MaxTrialsPerTenant int64
	// FS is the filesystem for shard checkpoints and result files; nil
	// selects the direct OS filesystem.
	FS chaos.FS
	// JournalFS, when non-nil, routes only the job journal — the seam the
	// crash-point explorer targets to prove every journal crash is
	// recoverable. Nil selects FS.
	JournalFS chaos.FS
	// Retry governs checkpoint, trace, and result write retries; the zero
	// value is the chaos default policy.
	Retry chaos.Policy
	// ShardRetry budgets re-execution of a shard whose trial panicked
	// (sim.TrialPanicError) or stalled under the watchdog (StallError);
	// other shard errors are never retried. The zero value is the chaos
	// default policy (4 attempts).
	ShardRetry chaos.Policy
	// MaxActivePerClass bounds admitted-but-unfinished jobs per priority
	// class (keys interactive|batch|bulk); a class at its bound rejects
	// with CodeClassQueueFull. Absent or 0 means the class shares only
	// the global MaxActiveJobs bound.
	MaxActivePerClass map[string]int
	// StallBudget arms the stuck-shard watchdog: a running shard attempt
	// whose heartbeat (points + telemetry counters) stays flat longer
	// than this is cancelled with a typed StallError and retried under
	// ShardRetry from its checkpoint. 0 disables the watchdog.
	StallBudget time.Duration
	// MaintenanceTick overrides the watchdog/shedder poll interval; <= 0
	// selects 250ms, tightened to StallBudget/4 when that is smaller.
	MaintenanceTick time.Duration
	// DegradedQueueDepth is the queued-shard count past which /healthz
	// reports degraded; <= 0 selects 8 × PoolWorkers.
	DegradedQueueDepth int
	// ShardSecondsEstimate seeds the EWMA of observed per-shard service
	// seconds that deadline-aware admission and shedding divide pool
	// capacity by. 0 starts with no estimate (the first completed shard
	// provides one); tests use it to make shedding deterministic.
	ShardSecondsEstimate float64
	// Metrics receives server counters and gauges; nil disables them.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives server-wide job lifecycle events (in
	// addition to each job's own trace.jsonl).
	Trace *telemetry.Trace
	// Cache, when non-nil, is the content-addressed result cache consulted
	// before admission (exact hits short-circuit the pipeline; same-family
	// superset grids donate points) and filled with every completed
	// result. See cache.go.
	Cache *resultcache.Store
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Sentinel errors for job lookup and result retrieval.
var (
	ErrNotFound = errors.New("server: no such job")
	ErrNotDone  = errors.New("server: job has not completed")
)

// job is the server-internal job state; JobStatus is its client view.
type job struct {
	id          string
	spec        JobSpec
	digest      string
	state       State
	errText     string
	resumed     bool
	submittedAt time.Time

	fn        sweep.PointFunc
	points    int
	shards    int
	trialCost int64
	// class is the job's priority class index (classIndex of the
	// normalized spec priority); deadline is the absolute wall-clock
	// instant TimeoutSeconds expires at, anchored to submittedAt so a
	// crash-restart re-arms the timer from the *remaining* budget.
	class    int
	deadline time.Time
	// grid is the gate-error grid the job actually computes: the full
	// spec grid, or the reuse plan's remainder when cached points were
	// grafted in. cache labels the status field; reuse, when non-nil,
	// holds the journaled near-miss plan.
	grid  []float64
	cache string
	reuse *reusePlan

	ctx    context.Context
	cancel context.CancelFunc
	timer  *time.Timer
	trace  *telemetry.FileTrace
	doneCh chan struct{}

	// span roots the job's causal trace tree (request → job → shard →
	// point); obs is its observability plane (per-shard registries,
	// progress, trajectory).
	span telemetry.Span
	obs  *jobObs

	running    int
	shardsDone int
	shardRes   map[int][]sweep.PointResult
}

func (j *job) emit(typ string, fields map[string]any) {
	if j.trace != nil {
		j.trace.Emit(typ, fields)
	}
}

func (j *job) sweepTrace() *telemetry.Trace {
	if j.trace == nil {
		return nil
	}
	return j.trace.Trace
}

// shardTask is one queued shard. fn is the job's point function,
// captured when a worker claims the task under the server mutex: a job
// that turns terminal releases its own reference while the shard may
// still be running.
type shardTask struct {
	j  *job
	k  int
	fn sweep.PointFunc
}

type tenantUsage struct {
	jobs   int
	trials int64
}

// Server is the sweep job server. Construct with New, serve its Handler,
// and shut down with Drain.
type Server struct {
	cfg      Config
	fs       chaos.FS
	journal  *Journal
	manifest *telemetry.Manifest

	runCtx  context.Context
	stopRun context.CancelFunc
	wg      sync.WaitGroup
	fatalCh chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	seq      int64
	jobs     map[string]*job
	order    []string
	byDigest map[string][]string // job IDs per spec digest, in submission order
	sched    sched
	active   int
	tenants  map[string]*tenantUsage
	draining bool
	fatalErr error
	// classActive counts admitted-but-unfinished jobs per priority
	// class; attempts tracks live shard execution attempts (the
	// watchdog's scan set and the preemption policy's victim pool).
	classActive [numClasses]int
	attempts    map[*attemptCtl]struct{}
	// shardSeconds is the EWMA of observed completed-shard wall seconds;
	// lastShed/lastStall drive the degraded health window.
	shardSeconds float64
	lastShed     time.Time
	lastStall    time.Time
	health       HealthState
	healthReason string
	// retired accumulates terminal jobs' merged per-shard snapshots so the
	// server-wide /metrics view conserves their trial counters after their
	// live registries are released.
	retired telemetry.Snapshot

	reqSeq  atomic.Int64
	tlabels tenantLabels
}

// tenantLabels bounds the tenant-name cardinality admitted into metric
// names. Tenant strings reach countReject before validation, so they are
// sanitized here, and the set of distinct names that may mint new metric
// series is capped — every tenant past the cap reports under "overflow".
type tenantLabels struct {
	mu    sync.Mutex
	names map[string]string
}

// maxTenantLabels caps distinct tenant metric label values per process.
const maxTenantLabels = 64

func (t *tenantLabels) label(name string) string {
	clean := sanitizeTenant(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.names[clean]; ok {
		return l
	}
	if t.names == nil {
		t.names = make(map[string]string)
	}
	if len(t.names) >= maxTenantLabels {
		return "overflow"
	}
	t.names[clean] = clean
	return clean
}

// sanitizeTenant maps an arbitrary string onto the tenant charset
// [A-Za-z0-9._-], truncated to 64 bytes, so a hostile tenant field can
// never splice structure into a metric name.
func sanitizeTenant(name string) string {
	if name == "" {
		return "default"
	}
	b := []byte(name)
	if len(b) > 64 {
		b = b[:64]
	}
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// New opens (or creates) the data directory, replays the job journal —
// resuming every job the previous process left non-terminal — and starts
// the shard worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if cfg.FS == nil {
		cfg.FS = chaos.OS
	}
	if cfg.JournalFS == nil {
		cfg.JournalFS = cfg.FS
	}
	if cfg.PoolWorkers <= 0 {
		cfg.PoolWorkers = 4
	}
	if cfg.MaxActiveJobs <= 0 {
		cfg.MaxActiveJobs = 64
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	journal, recs, err := OpenJournal(cfg.JournalFS, filepath.Join(cfg.DataDir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	journal.metrics = cfg.Metrics
	s := &Server{
		cfg:      cfg,
		fs:       cfg.FS,
		journal:  journal,
		manifest: telemetry.Collect("revft-server"),
		fatalCh:  make(chan struct{}),
		jobs:     make(map[string]*job),
		byDigest: make(map[string][]string),
		tenants:  make(map[string]*tenantUsage),
		attempts: make(map[*attemptCtl]struct{}),
		health:   HealthHealthy,
	}
	s.shardSeconds = cfg.ShardSecondsEstimate
	if cfg.Cache != nil {
		s.manifest.Cache = &telemetry.CacheSpec{Dir: cfg.Cache.Dir}
	}
	s.cond = sync.NewCond(&s.mu)
	s.runCtx, s.stopRun = context.WithCancel(context.Background())
	if err := s.replay(recs); err != nil {
		_ = journal.Close()
		return nil, err
	}
	for i := 0; i < cfg.PoolWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	poll := cfg.MaintenanceTick
	if poll <= 0 {
		poll = 250 * time.Millisecond
		if cfg.StallBudget > 0 && cfg.StallBudget/4 < poll {
			poll = cfg.StallBudget / 4
		}
		if poll < 5*time.Millisecond {
			poll = 5 * time.Millisecond
		}
	}
	s.wg.Add(1)
	go s.maintenance(poll)
	return s, nil
}

// replay rebuilds job state from journal records and requeues every job
// the previous process left non-terminal. The last record per job wins;
// unknown record types are skipped for forward compatibility.
func (s *Server) replay(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		j := s.jobs[rec.Job]
		switch rec.Type {
		case recSubmitted:
			if rec.Spec == nil {
				return &CorruptJournalError{Path: s.journal.path, Err: fmt.Errorf("submitted record for %s has no spec", rec.Job)}
			}
			spec := *rec.Spec
			spec.normalize()
			nj := &job{
				id: rec.Job, spec: spec, digest: spec.Digest(),
				state: StateQueued, submittedAt: rec.At,
				doneCh: make(chan struct{}),
			}
			s.addJobLocked(nj)
		case recStarted:
			if j != nil && !j.state.Terminal() {
				j.state = StateRunning
			}
		case recDone:
			if j != nil {
				s.replayTerminal(j, StateDone, "")
			}
		case recFailed:
			if j != nil {
				s.replayTerminal(j, StateFailed, rec.Error)
			}
		case recCancelled:
			if j != nil {
				s.replayTerminal(j, StateCancelled, rec.Error)
			}
		case recReused:
			if j != nil && !j.state.Terminal() {
				j.reuse = restorePlanFromRecord(rec)
				if j.reuse != nil {
					// Reuse is a flavor of miss: the job still computed.
					j.cache = CacheMiss
				}
			}
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.Terminal() {
			continue
		}
		j.resumed = true
		if err := s.activateLocked(j); err != nil {
			// The driver is gone or now rejects the spec; the job cannot
			// be resumed. Journal the failure so the next restart agrees.
			s.finishLocked(j, StateFailed, fmt.Sprintf("resume: %v", err))
			continue
		}
		s.admitLocked(j)
		s.cfg.Metrics.Counter("server.jobs_resumed").Inc()
		s.logf("resumed job %s (%s, state %s)", j.id, j.spec.Experiment, j.state)
	}
	return nil
}

func (s *Server) replayTerminal(j *job, st State, errText string) {
	if !j.state.Terminal() {
		j.state = st
		j.errText = errText
		if j.doneCh != nil {
			close(j.doneCh)
		}
	}
}

// activateLocked resolves the job's driver and prepares it for execution.
func (s *Server) activateLocked(j *job) error {
	driver := s.cfg.Drivers[j.spec.Experiment]
	if driver == nil {
		return fmt.Errorf("no driver registered for experiment %q", j.spec.Experiment)
	}
	grid := j.spec.Grid()
	if j.reuse != nil && len(j.reuse.Remainder) > 0 {
		// Near-miss reuse: the job computes only the grid values no cached
		// point covers. Quota accounting below then charges the remainder,
		// not the nominal grid — reused points genuinely cost nothing.
		grid = j.reuse.Remainder
	}
	j.grid = grid
	fn, points, err := driver(j.spec, grid)
	if err != nil {
		return err
	}
	if points < 1 {
		return fmt.Errorf("driver for %q resolved %d points", j.spec.Experiment, points)
	}
	if int64(j.spec.Trials) > math.MaxInt64/int64(points) {
		return fmt.Errorf("%d points × %d trials overflows the trial count", points, j.spec.Trials)
	}
	j.fn = fn
	j.points = points
	j.class = classIndex(j.spec.Priority)
	j.shards = j.spec.Shards
	if j.shards > points {
		j.shards = points
	}
	j.trialCost = int64(points) * int64(j.spec.Trials)
	j.shardRes = make(map[int][]sweep.PointResult)
	j.ctx, j.cancel = context.WithCancel(s.runCtx)
	return nil
}

// admitLocked books an activated job in: quota accounting, job directory
// and trace, deadline timer, and one queued task per shard.
func (s *Server) admitLocked(j *job) {
	s.active++
	s.classActive[j.class]++
	u := s.tenant(j.spec.Tenant)
	u.jobs++
	u.trials += j.trialCost
	if j.span.Zero() {
		// Replayed jobs have no originating request; the job is the root.
		j.span = telemetry.Root(j.id)
	}
	j.obs = newJobObs(j.shards)

	dir := s.jobDir(j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.logf("job %s: mkdir: %v", j.id, err)
	}
	// Per-job traces are best-effort observability on the direct OS
	// filesystem: they degrade rather than fail, and keeping them off the
	// chaos seams keeps crash-explored op sequences about durable state
	// only (journal, checkpoints, results).
	m := *s.manifest
	m.Experiment = j.spec.Experiment
	m.Engine = j.spec.Engine
	m.Seed = j.spec.Seed
	m.Trials = j.spec.Trials
	m.Workers = j.spec.Workers
	if ft, err := telemetry.NewTraceFile(filepath.Join(dir, "trace.jsonl"), &m, telemetry.FileTraceOptions{
		Metrics: s.cfg.Metrics, Retry: s.cfg.Retry,
	}); err == nil {
		j.trace = ft
	}
	j.emit("job_admitted", j.span.Tag(map[string]any{
		"job": j.id, "tenant": j.spec.Tenant, "experiment": j.spec.Experiment,
		"points": j.points, "shards": j.shards, "trials": j.spec.Trials,
		"resumed": j.resumed,
	}))
	s.cfg.Trace.Emit("job_admitted", j.span.Tag(map[string]any{"job": j.id, "tenant": j.spec.Tenant, "resumed": j.resumed}))

	if j.spec.TimeoutSeconds > 0 {
		// The deadline anchors to submittedAt, which replay restores from
		// the journaled record: a job resumed after a crash re-arms from
		// its *remaining* budget, so crashing the server can never extend
		// a deadline. A budget fully consumed before restart fails here,
		// journaled, before any shard is queued.
		j.deadline = j.submittedAt.Add(time.Duration(j.spec.TimeoutSeconds * float64(time.Second)))
		d := time.Until(j.deadline)
		if d <= 0 {
			s.finishLocked(j, StateFailed, fmt.Sprintf(
				"deadline exceeded after %gs (budget consumed before restart)", j.spec.TimeoutSeconds))
			return
		}
		j.timer = time.AfterFunc(d, func() { s.deadline(j) })
	}
	now := time.Now()
	for k := 0; k < j.shards; k++ {
		s.sched.push(j.class, shardTask{j: j, k: k})
		j.obs.enqueued(k, now)
	}
	if j.class == classIndex(PriorityInteractive) {
		s.preemptLocked()
	}
	s.updateGaugesLocked()
	s.cond.Broadcast()
}

// addJobLocked registers an admitted or replayed job under its ID, in
// submission order, and under its spec digest.
func (s *Server) addJobLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byDigest[j.digest] = append(s.byDigest[j.digest], j.id)
}

func (s *Server) tenant(name string) *tenantUsage {
	u := s.tenants[name]
	if u == nil {
		u = &tenantUsage{}
		s.tenants[name] = u
	}
	return u
}

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) nextSeqLocked() int64 {
	s.seq++
	return s.seq
}

// fatalLocked records an unrecoverable server error — in practice a dead
// journal, without which no state transition can be made durable. The
// server stops admitting and releases the worker pool; already-journaled
// state is intact and a restarted process resumes from it.
func (s *Server) fatalLocked(err error) {
	if s.fatalErr != nil {
		return
	}
	s.fatalErr = err
	close(s.fatalCh)
	s.stopRun()
	s.cond.Broadcast()
	s.logf("fatal: %v", err)
}

// Err returns the server's fatal error, if any.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatalErr
}

func (s *Server) updateGaugesLocked() {
	s.cfg.Metrics.Gauge("server.queue_depth").Set(float64(s.sched.depth()))
	for c := 0; c < numClasses; c++ {
		s.cfg.Metrics.Gauge("server.queue_depth." + classNames[c]).Set(float64(len(s.sched.queues[c])))
		s.cfg.Metrics.Gauge("server.jobs_active." + classNames[c]).Set(float64(s.classActive[c]))
	}
	s.cfg.Metrics.Gauge("server.jobs_active").Set(float64(s.active))
	s.refreshHealthLocked(time.Now())
}

// Submit admits one job: validate, resolve the driver, check admission
// bounds and tenant quotas, journal the submission durably, and enqueue
// its shards. Refusals are typed *RejectError values — never a stall.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	return s.SubmitSpan(spec, telemetry.Span{})
}

// SubmitSpan is Submit with an originating request span: the admitted
// job's span tree roots under parent, so a trace reconstructs the full
// request → job → shard → point causality.
func (s *Server) SubmitSpan(spec JobSpec, parent telemetry.Span) (JobStatus, error) {
	start := time.Now()
	defer func() {
		s.cfg.Metrics.Histogram("server.admission_seconds", telemetry.LatencyBuckets).
			Observe(time.Since(start).Seconds())
	}()
	spec.normalize()
	if err := spec.Validate(); err != nil {
		s.countReject(spec.Tenant, CodeInvalidSpec)
		return JobStatus{}, reject(CodeInvalidSpec, 400, "%v", err)
	}
	if s.cfg.Drivers[spec.Experiment] == nil {
		s.countReject(spec.Tenant, CodeUnknownExperiment)
		return JobStatus{}, reject(CodeUnknownExperiment, 400, "no driver registered for experiment %q", spec.Experiment)
	}
	digest := spec.Digest()
	// Consult the result cache before taking the server mutex: lookup is
	// pure disk reads, of the exact entry and of near-miss candidates.
	var hitPayload []byte
	var hitPoints int
	var plan *reusePlan
	if s.cfg.Cache != nil && !spec.NoCache {
		hitPayload, hitPoints, plan = s.cacheLookup(spec, digest, parent.Child("cache"))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j := &job{
		spec: spec, digest: digest, cache: s.cacheOutcome(spec),
		state: StateQueued, submittedAt: time.Now().UTC(),
		doneCh: make(chan struct{}),
	}
	if hitPayload == nil && plan != nil && len(plan.Remainder) == 0 {
		// A same-family entry covers every requested point: assemble the
		// subset result and serve it exactly like an exact hit.
		data, pts, aerr := assembleReused(spec, digest, plan)
		if aerr != nil {
			s.logf("cache reuse assembly failed (%v); computing instead", aerr)
			plan = nil
		} else {
			hitPayload, hitPoints = data, pts
			j.reuse = plan
		}
	}
	if hitPayload != nil {
		// Even a free job is refused by a failed or draining server: the
		// client should move on, not read from a process on its way out.
		if s.fatalErr != nil {
			s.countReject(spec.Tenant, CodeServerFailed)
			return JobStatus{}, reject(CodeServerFailed, 503, "server failed: %v", s.fatalErr)
		}
		if s.draining {
			s.countReject(spec.Tenant, CodeDraining)
			return JobStatus{}, reject(CodeDraining, 503, "server is draining; submit to another instance")
		}
		j.cache = CacheHit
		st, ok, err := s.admitCacheHitLocked(j, hitPayload, hitPoints, parent)
		if ok {
			if err == nil && j.reuse != nil {
				// The assembled subset result is itself cacheable under its
				// own digest; the next identical submission is an exact hit.
				s.storeResultLocked(j, hitPayload)
			}
			return st, err
		}
		// The result write degraded; fall back to computing from scratch.
		j.cache = s.cacheOutcome(spec)
		j.reuse = nil
		j.id = ""
		plan = nil
	}
	if plan != nil && len(plan.Remainder) > 0 {
		j.reuse = plan
	}
	if err := s.activateLocked(j); err != nil {
		s.countReject(spec.Tenant, CodeInvalidSpec)
		return JobStatus{}, reject(CodeInvalidSpec, 400, "%v", err)
	}
	if rerr := s.admissionCheckLocked(j); rerr != nil {
		j.cancel()
		s.countReject(spec.Tenant, rerr.Code)
		return JobStatus{}, rerr
	}
	j.id = fmt.Sprintf("j%06d-%.8s", s.nextSeqLocked(), j.digest)
	j.span = telemetry.Span{ID: j.id, Parent: parent.ID}
	rec := Record{Seq: s.seq, Type: recSubmitted, Job: j.id, At: j.submittedAt, Spec: &j.spec}
	if err := s.journal.Append(rec); err != nil {
		j.cancel()
		s.fatalLocked(err)
		return JobStatus{}, reject(CodeServerFailed, 503, "journal write failed: %v", err)
	}
	if j.reuse != nil {
		// The reuse decision must be as durable as the submission itself:
		// replay reconstructs the remainder grid (hence the shard
		// checkpoint digests) from this record, never from the cache.
		rr := Record{Seq: s.nextSeqLocked(), Type: recReused, Job: j.id, At: time.Now().UTC(), Reuse: j.reuse}
		if err := s.journal.Append(rr); err != nil {
			j.cancel()
			s.fatalLocked(err)
			return JobStatus{}, reject(CodeServerFailed, 503, "journal write failed: %v", err)
		}
		s.cfg.Metrics.Counter("server.cache_near_hits").Inc()
		s.cfg.Metrics.Counter("server.cache_reused_points").Add(int64(len(j.reuse.Points)))
		s.cfg.Trace.Emit("job_cache_reuse", j.span.Tag(map[string]any{
			"job": j.id, "source": j.reuse.Source,
			"reused_points": len(j.reuse.Points), "remainder_points": len(j.reuse.Remainder),
		}))
		s.logf("job %s: grafting %d cached points from %.12s; computing %d remaining grid values",
			j.id, len(j.reuse.Points), j.reuse.Source, len(j.reuse.Remainder))
	}
	s.addJobLocked(j)
	s.admitLocked(j)
	s.cfg.Metrics.Counter("server.jobs_submitted").Inc()
	s.cfg.Metrics.Counter("server.tenant." + s.tlabels.label(j.spec.Tenant) + ".jobs_submitted").Inc()
	return s.statusLocked(j), nil
}

// admissionCheckLocked applies the bounded queue and per-tenant quotas.
func (s *Server) admissionCheckLocked(j *job) *RejectError {
	if s.fatalErr != nil {
		return reject(CodeServerFailed, 503, "server failed: %v", s.fatalErr)
	}
	if s.draining {
		return reject(CodeDraining, 503, "server is draining; submit to another instance")
	}
	if s.active >= s.cfg.MaxActiveJobs {
		return reject(CodeQueueFull, 429, "active job queue is full (%d jobs); retry later", s.active).
			retryAfter(int(s.shardSeconds) + 1)
	}
	if b := s.cfg.MaxActivePerClass[j.spec.Priority]; b > 0 && s.classActive[j.class] >= b {
		return reject(CodeClassQueueFull, 429, "priority class %q is full (%d active jobs, bound %d); retry later",
			j.spec.Priority, s.classActive[j.class], b).retryAfter(int(s.shardSeconds) + 1)
	}
	if j.spec.TimeoutSeconds > 0 {
		// Deadline-aware shedding at the door: if the queue ahead of this
		// class already makes the requested timeout unmeetable, refuse now
		// with a hint of when to retry rather than admit doomed work.
		if est := s.estimatedWaitLocked(j.class); est > j.spec.TimeoutSeconds {
			return reject(CodeDeadlineUnmeet, 429,
				"timeout %gs is unmeetable: estimated completion %.1fs at priority %q given current queue",
				j.spec.TimeoutSeconds, est, j.spec.Priority).retryAfter(int(est-j.spec.TimeoutSeconds) + 1)
		}
	}
	// Read-only view: a rejected submission must not leave a tenant map
	// entry behind (unbounded growth under a tenant-name scan).
	var jobs int
	var trials int64
	if u := s.tenants[j.spec.Tenant]; u != nil {
		jobs, trials = u.jobs, u.trials
	}
	if s.cfg.MaxJobsPerTenant > 0 && jobs >= s.cfg.MaxJobsPerTenant {
		return reject(CodeTenantJobQuota, 429, "tenant %q already has %d active job(s); limit %d",
			j.spec.Tenant, jobs, s.cfg.MaxJobsPerTenant)
	}
	if s.cfg.MaxTrialsPerTenant > 0 && trials+j.trialCost > s.cfg.MaxTrialsPerTenant {
		return reject(CodeTenantTrialQuota, 429, "tenant %q in-flight trial budget %d + %d exceeds limit %d",
			j.spec.Tenant, trials, j.trialCost, s.cfg.MaxTrialsPerTenant)
	}
	return nil
}

func (s *Server) countReject(tenant, code string) {
	s.cfg.Metrics.Counter("server.jobs_rejected").Inc()
	s.cfg.Metrics.Counter("server.reject." + code).Inc()
	// tenant arrives unvalidated here (rejections fire before Validate
	// passes), so the label is sanitized and cardinality-bounded.
	s.cfg.Metrics.Counter("server.tenant." + s.tlabels.label(tenant) + ".jobs_rejected").Inc()
}

// worker is one pool goroutine: claim the next runnable shard, run it,
// repeat until drain or fatal.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		t, ok := s.next()
		if !ok {
			return
		}
		s.runShard(t)
	}
}

// next blocks for a runnable shard task, claimed in weighted priority
// order. It returns ok=false when the server is draining (or fatally
// failed) and the queues hold no more work for this worker.
func (s *Server) next() (shardTask, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for {
			t, ok := s.sched.pop()
			if !ok {
				break
			}
			j := t.j
			if j.state.Terminal() {
				continue // cancelled, deadlined, or shed while queued
			}
			if s.draining || s.fatalErr != nil {
				// Admitted but unstarted shards stay journaled as
				// non-terminal; the next process requeues them.
				continue
			}
			if j.state == StateQueued && !j.deadline.IsZero() {
				// Claim-time shed: don't hand a pool worker a job whose
				// remaining budget can no longer cover one shard's
				// observed service time — fail it early and typed.
				now := time.Now()
				remaining := j.deadline.Sub(now).Seconds()
				if remaining <= 0 || (s.shardSeconds > 0 && remaining < s.shardSeconds) {
					s.shedLocked(j, fmt.Sprintf(
						"shed at claim: remaining deadline budget %.2fs cannot cover estimated shard time %.2fs",
						remaining, s.shardSeconds))
					continue
				}
			}
			if j.state == StateQueued {
				rec := Record{Seq: s.nextSeqLocked(), Type: recStarted, Job: j.id, At: time.Now().UTC()}
				if err := s.journal.Append(rec); err != nil {
					s.fatalLocked(err)
					return shardTask{}, false
				}
				j.state = StateRunning
			}
			j.running++
			t.fn = j.fn
			s.updateGaugesLocked()
			wait := j.obs.claimed(t.k, time.Now())
			s.cfg.Metrics.Histogram("server.queue_wait_seconds", telemetry.WallBuckets).Observe(wait)
			s.cfg.Metrics.Histogram("server.queue_wait_seconds."+classNames[j.class], telemetry.WallBuckets).Observe(wait)
			return t, true
		}
		if s.draining || s.fatalErr != nil {
			return shardTask{}, false
		}
		s.cond.Wait()
	}
}

// runShard executes one shard of one job as a checkpointed sweep, with a
// budgeted retry for trial panics: the shard's checkpoint holds every
// point completed before the panic, so a retry resumes instead of
// recomputing, and the original per-point seeds keep the eventual result
// bit-identical.
func (s *Server) runShard(t shardTask) {
	j := t.j
	spec := s.shardSpec(j, t.k)
	ckPath := filepath.Join(s.jobDir(j.id), fmt.Sprintf("shard-%03d.json", t.k))
	sspan := j.span.Child("s" + strconv.Itoa(t.k))

	pol := s.cfg.ShardRetry
	pol.Retryable = func(err error) bool {
		// Trial panics and watchdog stalls share the retry budget: both
		// resume from the shard checkpoint, so a retried attempt
		// recomputes nothing and the eventual result is bit-identical.
		var pe *sim.TrialPanicError
		var se *StallError
		return errors.As(err, &pe) || errors.As(err, &se)
	}
	pol.OnRetry = func(attempt int, err error, delay time.Duration) {
		s.cfg.Metrics.Counter("server.shard_retries").Inc()
		s.cfg.Metrics.Histogram("server.shard_retry_backoff_seconds", telemetry.LatencyBuckets).
			Observe(delay.Seconds())
		fields := map[string]any{
			"job": j.id, "shard": t.k, "attempt": attempt,
			"error": err.Error(), "backoff_seconds": delay.Seconds(),
		}
		var pe *sim.TrialPanicError
		if errors.As(err, &pe) {
			// Carry the panic provenance so a retried shard's trace still
			// pins which trial block of which estimate seed blew up.
			fields["panic_block"] = pe.Block
			fields["panic_seed"] = pe.Seed
			fields["panic_value"] = fmt.Sprint(pe.Value)
		}
		var se *StallError
		if errors.As(err, &se) {
			fields["stall_points_done"] = se.PointsDone
			fields["stall_idle_seconds"] = se.Idle.Seconds()
		}
		j.emit("shard_retry", sspan.Tag(fields))
		s.logf("job %s shard %d: retrying after %v", j.id, t.k, err)
	}

	var out *sweep.Outcome
	var err error
	start := time.Now()
	// pprof labels attribute every sample below — including the engine
	// worker goroutines the sweep spawns, which inherit them — to the
	// job, tenant, and shard, so `go tool pprof` can slice a busy server's
	// CPU profile per job.
	pprof.Do(j.ctx, pprof.Labels(
		"job", j.id, "tenant", j.spec.Tenant, "shard", strconv.Itoa(t.k),
	), func(ctx context.Context) {
		err = pol.Do(ctx, func() error {
			// Each attempt gets a fresh per-shard registry seeded from the
			// checkpoint's snapshot, so a retried attempt's abandoned
			// counters never pollute the shard's merged view: metrics
			// always restate exactly what the checkpoint covers plus the
			// live attempt.
			reg := telemetry.New()
			resume := s.exists(ckPath)
			var base *telemetry.Snapshot
			if resume {
				if ck, lerr := sweep.LoadFS(s.fs, ckPath); lerr == nil && ck.Metrics != nil {
					c := ck.Metrics.Clone()
					base = &c
				}
			}
			j.obs.beginAttempt(t.k, reg, base)
			// Each attempt runs under its own cancel-with-cause context:
			// the watchdog cancels it with a StallError, the preemption
			// policy with a PreemptError. Either way the runner flushes
			// its checkpoint at the cancellation boundary and the typed
			// cause (not the bare context error) decides the disposition.
			actx, acancel := context.WithCancelCause(ctx)
			ctl := &attemptCtl{j: j, k: t.k, cls: j.class, cancel: acancel}
			s.registerAttempt(ctl)
			defer func() {
				s.unregisterAttempt(ctl)
				acancel(nil)
			}()
			r := &sweep.Runner{
				Spec:           spec,
				Point:          shardPointFunc(t.fn, t.k, j.shards),
				CheckpointPath: ckPath,
				Resume:         resume,
				Metrics:        reg,
				Trace:          j.sweepTrace(),
				FS:             s.fs,
				Retry:          s.cfg.Retry,
				Span:           sspan,
				OnPoint: func(p sweep.PointResult, resumed bool) {
					j.obs.onPoint(t.k, j.shards, p, resumed)
				},
			}
			o, rerr := r.Run(actx)
			out = o
			if rerr != nil {
				cause := context.Cause(actx)
				var se *StallError
				var pe *PreemptError
				if errors.As(cause, &se) || errors.As(cause, &pe) {
					rerr = cause
				}
			}
			return rerr
		})
	})
	s.shardFinished(j, t.k, out, err, time.Since(start).Seconds())
}

// exists probes a path through the server's FS seam.
func (s *Server) exists(path string) bool {
	m, err := s.fs.Glob(path)
	return err == nil && len(m) > 0
}

// shardSpec derives shard k's sweep spec. The Extra field binds the
// checkpoint digest to the job spec digest and the shard's position, so
// a shard can only ever resume its own checkpoint — and after a restart
// it does, because the same job spec re-derives the same shard specs.
func (s *Server) shardSpec(j *job, k int) sweep.Spec {
	var stop sweep.StopRule
	if j.spec.RelTol > 0 {
		stop = sweep.StopRule{RelTol: j.spec.RelTol, MaxTrials: j.spec.Trials, ZeroScale: j.spec.ZeroScale}
	}
	return sweep.Spec{
		Experiment: j.spec.Experiment,
		Grid:       j.grid,
		Points:     shardPoints(j.points, j.shards, k),
		Trials:     j.spec.Trials,
		Workers:    j.spec.Workers,
		Seed:       j.spec.Seed,
		Engine:     j.spec.Engine,
		Extra:      fmt.Sprintf("job=%.12s shard=%d/%d maxlevel=%d bits=%d", j.digest, k, j.shards, j.spec.MaxLevel, j.spec.Bits),
		Stop:       stop,
	}
}

// shardFinished books one shard's outcome and decides the job's fate.
// wallSeconds is the shard's total execution wall time (all attempts),
// which feeds the service-time estimate on completion.
func (s *Server) shardFinished(j *job, k int, out *sweep.Outcome, err error, wallSeconds float64) {
	var outMetrics *telemetry.Snapshot
	if out != nil {
		outMetrics = out.Metrics
	}
	var pre *PreemptError
	sspan := j.span.Child("s" + strconv.Itoa(k))
	s.mu.Lock()
	defer s.mu.Unlock()
	j.running--
	switch {
	case err == nil && out != nil && out.Complete:
		s.observeShardSecondsLocked(wallSeconds)
		j.obs.finished(k, "done", outMetrics)
		j.shardsDone++
		j.emit("shard_done", sspan.Tag(map[string]any{
			"job": j.id, "shard": k, "points": len(out.Done), "resumed_points": out.Resumed,
		}))
		if !j.state.Terminal() {
			// A terminal job has released its shard results; a shard that
			// finishes after a cancel or a sibling's failure books nothing.
			j.shardRes[k] = out.Done
			if j.shardsDone == j.shards {
				s.completeLocked(j)
			}
		}
	case j.state.Terminal():
		// Cancelled or deadlined underneath us; the terminal transition
		// is already journaled.
		j.obs.finished(k, "failed", outMetrics)
	case s.runCtx.Err() != nil:
		// Draining (or fatal): the shard flushed its checkpoint on the
		// way out and the job stays journaled non-terminal, so the next
		// process resumes it exactly here.
		j.obs.finished(k, "parked", outMetrics)
		j.emit("shard_parked", sspan.Tag(map[string]any{"job": j.id, "shard": k}))
	case errors.As(err, &pre):
		// Preempted for interactive work: the attempt flushed its
		// checkpoint at the cancellation boundary, so re-queuing the
		// shard (in its own class) resumes with zero recomputation. The
		// journal is untouched — the job was and stays running, exactly
		// the drain-park shape but within one process.
		j.obs.requeued(k, time.Now())
		s.sched.push(j.class, shardTask{j: j, k: k})
		j.emit("shard_preempted", sspan.Tag(map[string]any{"job": j.id, "shard": k}))
		s.cond.Broadcast()
	default:
		j.obs.finished(k, "failed", outMetrics)
		if err == nil {
			err = errors.New("shard sweep incomplete without error")
		}
		s.finishLocked(j, StateFailed, fmt.Sprintf("shard %d: %v", k, err))
	}
	s.updateGaugesLocked()
}

// completeLocked merges the shards, writes result.json atomically, and
// journals the job done.
func (s *Server) completeLocked(j *job) {
	res, err := j.mergeResult()
	var data []byte
	if err == nil {
		data, err = json.MarshalIndent(res, "", "  ")
	}
	if err == nil {
		data = append(data, '\n')
		path := filepath.Join(s.jobDir(j.id), "result.json")
		// Background, not j.ctx: the merge is pure bookkeeping of already
		// computed trials, and it must be allowed to land even while a
		// drain is cancelling the run contexts.
		err = s.cfg.Retry.Do(context.Background(), func() error {
			return chaos.WriteFileAtomic(s.fs, path, data)
		})
	}
	if err != nil {
		s.finishLocked(j, StateFailed, fmt.Sprintf("write result: %v", err))
		return
	}
	s.storeResultLocked(j, data)
	s.finishLocked(j, StateDone, "")
}

// mergeResult stitches the shards' point results — and any points grafted
// from a cached superset entry — back into the requested grid's global
// point order, verifying no point is missing or duplicated. With a reuse
// plan active, computed points arrive indexed over the remainder grid and
// are mapped back onto the requested grid by ε value.
func (j *job) mergeResult() (*Result, error) {
	reqGrid := j.spec.Grid()
	var reused []reusePoint
	if j.reuse != nil {
		reused = j.reuse.Points
	}
	total := j.points + len(reused)
	if len(reqGrid) < 1 || total%len(reqGrid) != 0 {
		return nil, fmt.Errorf("merged point count %d is not a multiple of grid size %d", total, len(reqGrid))
	}
	pts := make([]ResultPoint, total)
	seen := make([]bool, total)
	for _, rp := range reused {
		if rp.Index < 0 || rp.Index >= total || seen[rp.Index] {
			return nil, fmt.Errorf("reuse plan has bad global point %d", rp.Index)
		}
		pts[rp.Index] = ResultPoint{Index: rp.Index, Ests: rp.Ests, Stopped: rp.Stopped}
		seen[rp.Index] = true
	}
	reqIdx := make(map[uint64]int, len(reqGrid))
	for i, v := range reqGrid {
		reqIdx[math.Float64bits(v)] = i
	}
	rem := j.grid
	for k, res := range j.shardRes {
		for _, p := range res {
			if p.Partial {
				return nil, fmt.Errorf("shard %d reported a partial point in a complete outcome", k)
			}
			g := k + p.Index*j.shards
			if g < 0 || g >= j.points {
				return nil, fmt.Errorf("shard %d produced bad computed point %d", k, g)
			}
			gi := g
			if j.reuse != nil && len(rem) > 0 {
				b, ri := g/len(rem), g%len(rem)
				qi, ok := reqIdx[math.Float64bits(rem[ri])]
				if !ok {
					return nil, fmt.Errorf("remainder value %g not in requested grid", rem[ri])
				}
				gi = b*len(reqGrid) + qi
			}
			if gi < 0 || gi >= total || seen[gi] {
				return nil, fmt.Errorf("shard %d produced bad global point %d", k, gi)
			}
			pts[gi] = ResultPoint{Index: gi, Ests: p.Ests, Stopped: p.Stopped}
			seen[gi] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("point %d missing after shard merge", i)
		}
	}
	return &Result{
		Experiment: j.spec.Experiment,
		SpecDigest: j.digest,
		Grid:       reqGrid,
		Points:     pts,
	}, nil
}

// finishLocked journals and applies a terminal transition, releases the
// job's quota and timer, and closes its trace. It also drops the state
// only a running job needs — the driver's point function, which holds
// the compiled circuits, and the per-shard results the merge reads — so
// a terminal job keeps only what its status needs.
func (s *Server) finishLocked(j *job, st State, errText string) {
	if j.state.Terminal() {
		return
	}
	recType := map[State]string{StateDone: recDone, StateFailed: recFailed, StateCancelled: recCancelled}[st]
	rec := Record{Seq: s.nextSeqLocked(), Type: recType, Job: j.id, At: time.Now().UTC(), Error: errText}
	if err := s.journal.Append(rec); err != nil {
		// The transition could not be made durable; a restart will rerun
		// the job. Still apply it in memory so waiters are released.
		s.fatalLocked(err)
	}
	j.state = st
	j.errText = errText
	j.fn = nil
	j.shardRes = nil
	if j.timer != nil {
		j.timer.Stop()
	}
	if j.cancel != nil {
		j.cancel()
	}
	close(j.doneCh)
	s.active--
	s.classActive[j.class]--
	u := s.tenant(j.spec.Tenant)
	u.jobs--
	u.trials -= j.trialCost
	if u.jobs <= 0 && u.trials <= 0 {
		// Idle tenants leave no residue; the usage map stays bounded by
		// the set of tenants with active jobs, not everyone ever seen.
		delete(s.tenants, j.spec.Tenant)
	}
	// Retire the job's merged shard metrics into the server-wide view so
	// /metrics conserves its trial counters after the job's registries go.
	if merged, _, merr := j.obs.merged(); merr == nil {
		if err := s.retired.Merge(merged); err != nil {
			s.cfg.Metrics.Counter("server.obs_merge_errors").Inc()
		}
	} else {
		s.cfg.Metrics.Counter("server.obs_merge_errors").Inc()
	}
	j.emit("job_"+string(st), j.span.Tag(map[string]any{"job": j.id, "error": errText}))
	s.cfg.Trace.Emit("job_"+string(st), j.span.Tag(map[string]any{"job": j.id, "tenant": j.spec.Tenant, "error": errText}))
	if j.trace != nil {
		_ = j.trace.Close()
	}
	s.cfg.Metrics.Counter("server.jobs_" + string(st)).Inc()
	s.cfg.Metrics.Counter("server.tenant." + s.tlabels.label(j.spec.Tenant) + ".jobs_" + string(st)).Inc()
	s.updateGaugesLocked()
}

// deadline fires a job's timeout.
func (s *Server) deadline(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state.Terminal() || s.draining {
		return
	}
	s.finishLocked(j, StateFailed, fmt.Sprintf("deadline exceeded after %gs", j.spec.TimeoutSeconds))
}

// Cancel terminates a job. Cancelling an already-terminal job is a no-op
// returning its status.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	if !j.state.Terminal() {
		if s.draining {
			return s.statusLocked(j), reject(CodeDraining, 503, "server is draining")
		}
		s.finishLocked(j, StateCancelled, "cancelled by client")
	}
	return s.statusLocked(j), nil
}

// Job returns one job's status.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(j), nil
}

// Jobs returns every known job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// JobsByDigest returns every job with the given spec digest in submission
// order — the idempotency lookup: a client that crashed after submitting
// rediscovers its job by digest instead of submitting a duplicate.
func (s *Server) JobsByDigest(digest string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobStatus
	for _, id := range s.byDigest[digest] {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, Tenant: j.spec.Tenant, Experiment: j.spec.Experiment,
		Priority: j.spec.Priority,
		State:    j.state, Error: j.errText,
		Points: j.points, Trials: j.spec.Trials,
		Shards: j.shards, ShardsDone: j.shardsDone,
		Resumed: j.resumed, SpecDigest: j.digest, SubmittedAt: j.submittedAt,
		Cache: j.cache,
	}
	if j.reuse != nil {
		st.ReusedPoints = len(j.reuse.Points)
	}
	return st
}

// Result returns the serialized result.json of a completed job.
func (s *Server) Result(id string) ([]byte, error) {
	s.mu.Lock()
	j := s.jobs[id]
	var st State
	if j != nil {
		st = j.state
	}
	s.mu.Unlock()
	if j == nil {
		return nil, ErrNotFound
	}
	if st != StateDone {
		return nil, fmt.Errorf("%w (state %s)", ErrNotDone, st)
	}
	return s.fs.ReadFile(filepath.Join(s.jobDir(id), "result.json"))
}

// TracePath returns the job's trace file path ("" if the trace degraded
// before creation).
func (s *Server) TracePath(id string) (string, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return "", ErrNotFound
	}
	if j.trace == nil {
		return "", nil
	}
	return j.trace.Path, nil
}

// Wait blocks until the job reaches a terminal state, the context ends,
// or the server drains or fails; it returns the job's status at that
// moment.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	var werr error
	select {
	case <-j.doneCh:
	case <-ctx.Done():
		werr = ctx.Err()
	case <-s.fatalCh:
		werr = s.Err()
	case <-s.runCtx.Done():
		werr = errors.New("server: draining")
	}
	st, err := s.Job(id)
	if err != nil {
		return st, err
	}
	return st, werr
}

// Drain is the graceful shutdown: stop admitting, cancel the run context
// so every in-flight shard flushes its checkpoint at the next point
// boundary, wait for the pool, flush traces, and close the journal.
// Running jobs stay journaled non-terminal — a restarted server resumes
// them bit-identically — and ctx bounds how long the drain may take.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.stopRun()
	s.cond.Broadcast()
	if already {
		return errors.New("server: already draining")
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.Terminal() {
			continue
		}
		if j.timer != nil {
			j.timer.Stop()
		}
		j.emit("job_parked", map[string]any{"job": j.id, "shards_done": j.shardsDone})
		if j.trace != nil {
			_ = j.trace.Close()
		}
	}
	jerr := s.journal.Close()
	if s.fatalErr != nil {
		return s.fatalErr
	}
	return jerr
}

// Close drains with no time bound.
func (s *Server) Close() error { return s.Drain(context.Background()) }
