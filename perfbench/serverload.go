package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"revft/internal/chaos"
	"revft/internal/client"
	"revft/internal/exp"
	"revft/internal/resultcache"
	"revft/internal/server"
	"revft/internal/stats"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// The two server workloads run an in-process server.New configured as
// cmd/revft-server's defaults configure it, served over loopback through
// httptest, and drive it with client.Client values at their default
// settings, each a closed loop: a caller waits for its reply before
// sending the next request, as `revft-mc -server` callers do. The data
// directory starts from a history of terminal jobs, built once per
// invocation outside any timing and copied fresh for every server start.

// drivers adapts exp.ShardableSweep to the server's Driver contract the
// way cmd/revft-server does. With a tracer, every driver call is an
// exp.driver span and every point call a sweep.point span, both tagged
// with the job's spec digest.
func drivers(tr *tracer) map[string]server.Driver {
	mk := func(name string) server.Driver {
		return func(spec server.JobSpec, grid []float64) (sweep.PointFunc, int, error) {
			if !exp.ValidEngine(spec.Engine) {
				return nil, 0, fmt.Errorf("unknown engine %q (want scalar, lanes, lanes256, or lanes512)", spec.Engine)
			}
			p := exp.MCParams{Trials: spec.Trials, Workers: spec.Workers, Seed: spec.Seed, Engine: spec.Engine}
			if tr == nil {
				return exp.ShardableSweep(name, grid, spec.MaxLevel, spec.Bits, p)
			}
			digest := spec.Digest()
			s := tr.now()
			fn, n, err := exp.ShardableSweep(name, grid, spec.MaxLevel, spec.Bits, p)
			tr.record(span{Name: "exp.driver", Start: s, End: tr.now(), Attr: digest, Err: err != nil})
			if err != nil {
				return nil, 0, err
			}
			return func(ctx context.Context, pt, chunk, trials int) ([]stats.Bernoulli, error) {
				s := tr.now()
				ests, err := fn(ctx, pt, chunk, trials)
				var done int64
				if len(ests) > 0 {
					done = int64(ests[0].Trials)
				}
				tr.record(span{Name: "sweep.point", Start: s, End: tr.now(), N: done, Attr: digest, Err: err != nil})
				return ests, err
			}, n, nil
		}
	}
	out := make(map[string]server.Driver)
	for _, name := range []string{"recovery", "levels", "local", "adder"} {
		out[name] = mk(name)
	}
	return out
}

// serverConfig mirrors cmd/revft-server's defaults: a pool of GOMAXPROCS
// workers, 64 active jobs, 8 per tenant, a 2 minute stall budget, and the
// result cache in <data>/cache on the same filesystem as checkpoints.
// With a tracer, the three filesystem seams record spans under their own
// labels.
func serverConfig(dir string, tr *tracer, reg *telemetry.Registry) server.Config {
	var fsys, journal, cache chaos.FS = chaos.OS, chaos.OS, chaos.OS
	if tr != nil {
		fsys = &traceFS{inner: chaos.OS, tr: tr, label: "sweep"}
		journal = &traceFS{inner: chaos.OS, tr: tr, label: "journal"}
		cache = &traceFS{inner: chaos.OS, tr: tr, label: "cache"}
	}
	return server.Config{
		DataDir:          dir,
		Drivers:          drivers(tr),
		PoolWorkers:      runtime.GOMAXPROCS(0),
		MaxActiveJobs:    64,
		MaxJobsPerTenant: 8,
		MaxActivePerClass: map[string]int{
			server.PriorityInteractive: 0, server.PriorityBatch: 0, server.PriorityBulk: 0,
		},
		StallBudget: 2 * time.Minute,
		FS:          fsys,
		JournalFS:   journal,
		Metrics:     reg,
		Cache:       &resultcache.Store{Dir: filepath.Join(dir, "cache"), FS: cache, Metrics: reg},
		Logf:        func(string, ...any) {},
	}
}

// noSyncFS skips fsyncs. Only the history build uses it: that data is
// copied before any server under measurement opens it.
type noSyncFS struct{ chaos.FS }

type noSyncFile struct{ chaos.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) wrap(fl chaos.File, err error) (chaos.File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{fl}, nil
}

func (f noSyncFS) Create(name string) (chaos.File, error)     { return f.wrap(f.FS.Create(name)) }
func (f noSyncFS) OpenAppend(name string) (chaos.File, error) { return f.wrap(f.FS.OpenAppend(name)) }
func (f noSyncFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}
func (noSyncFS) SyncDir(string) error { return nil }

// familyOf is the result cache's family key for a spec: the spec digest
// with the grid and layout fields cleared, as the server stores it.
func familyOf(spec server.JobSpec) string {
	spec.GMin, spec.GMax, spec.Points, spec.Shards, spec.TimeoutSeconds = 0, 0, 0, 0, 0
	return spec.Digest()
}

// history is a data directory of terminal jobs and their cache entries.
type history struct {
	dir     string
	specs   []server.JobSpec
	results map[string][]byte // result.json by spec digest
}

// Experiments and trial budgets of the small sweeps the history and the
// server-mixed misses are made of. Budgets are per engine so each miss
// computes for about 10-20 ms on a 2-vCPU Xeon: the engine is a minority
// of a miss.
var (
	mixExperiments = []string{"recovery", "local", "adder"}
	mixTrials      = map[string]map[string]int{
		"recovery": {"scalar": 6000, "lanes": 200000, "lanes256": 600000, "lanes512": 800000},
		"local":    {"scalar": 1500, "lanes": 30000, "lanes256": 80000, "lanes512": 100000},
		"adder":    {"scalar": 1500, "lanes": 40000, "lanes256": 100000, "lanes512": 120000},
	}
	gridStarts = []float64{2e-4, 5e-4, 1e-3, 2e-3}
)

// smallSweep draws one small sweep spec: experiment, engine, 2 or 3 grid
// points over a factor-of-4 range, the given trial divisor applied to the
// engine's budget.
func smallSweep(rnd *rand.Rand, tenant string, seed uint64, div int) server.JobSpec {
	e := mixExperiments[rnd.Intn(len(mixExperiments))]
	eng := engines[rnd.Intn(len(engines))]
	lo := gridStarts[rnd.Intn(len(gridStarts))]
	spec := server.JobSpec{
		Tenant: tenant, Experiment: e, GMin: lo, GMax: 4 * lo, Points: 2 + rnd.Intn(2),
		Trials: mixTrials[e][eng] / div, Seed: seed, Engine: eng,
	}
	if spec.Trials < 64 {
		spec.Trials = 64
	}
	if e == "adder" {
		spec.Bits = 4
	}
	return spec
}

func buildHistory(ctx context.Context, r *run) (*history, error) {
	dir, err := r.tempDir("history")
	if err != nil {
		return nil, err
	}
	// The history server runs without a cache, whose near-miss scan reads
	// every stored entry on every submission and would make the build
	// quadratic; each result is stored afterwards the way the server
	// stores a completed one.
	fsys := noSyncFS{chaos.OS}
	srv, err := server.New(server.Config{
		DataDir: dir, Drivers: drivers(nil), PoolWorkers: runtime.GOMAXPROCS(0),
		FS: fsys, JournalFS: fsys, Logf: func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	n := r.cfg.size.historyJobs
	rnd := rand.New(rand.NewSource(int64(r.cfg.seed)*7919 + 1))
	h := &history{dir: dir, results: make(map[string][]byte)}
	for i := 0; i < n; i++ {
		h.specs = append(h.specs, smallSweep(rnd, "history", 1<<40+r.cfg.seed<<20+uint64(i), 50))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				st, err := srv.Submit(h.specs[i])
				if err == nil {
					st, err = srv.Wait(ctx, st.ID)
				}
				if err == nil && st.State != server.StateDone {
					err = fmt.Errorf("history job %s ended %s: %s", st.ID, st.State, st.Error)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		_ = srv.Close()
		return nil, err
	}
	store := &resultcache.Store{Dir: filepath.Join(dir, "cache"), FS: fsys}
	for _, st := range srv.Jobs() {
		data, err := srv.Result(st.ID)
		if err != nil {
			_ = srv.Close()
			return nil, err
		}
		h.results[st.SpecDigest] = data
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	for _, spec := range h.specs {
		meta := resultcache.Meta{Family: familyOf(spec), Experiment: spec.Experiment, Tool: "revft-server"}
		if err := store.Put(ctx, spec.Digest(), meta, h.results[spec.Digest()], telemetry.Span{}); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// copyData makes a fresh data directory from the history. The journal is
// copied, because the server appends to it; every other file is
// hard-linked, because the server replaces files by rename and never
// writes into an existing one. The copy is synced, so its writeback does
// not run during the set-up that follows.
func copyData(src, dst string) error {
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		switch {
		case info.IsDir():
			return os.MkdirAll(target, 0o755)
		case rel == "journal.jsonl":
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(target, data, 0o644)
		default:
			return os.Link(path, target)
		}
	})
	for _, p := range []string{filepath.Join(dst, "journal.jsonl"), dst} {
		if err == nil {
			err = syncPath(p)
		}
	}
	return err
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// instance is one running server under load.
type instance struct {
	srv  *server.Server
	reg  *telemetry.Registry
	http *httptest.Server
	tr   *tracer
	rt   *countingTransport

	mu       sync.Mutex
	accepted map[string]int64 // job ID -> accepted time (tracer ns)
	done     map[string]int64 // job ID -> Server.Wait return (tracer ns)
	waiters  sync.WaitGroup
	stopWait context.CancelFunc
}

// startServer copies the history into a fresh data directory and starts
// a server on it, returning the server.New wall time.
func startServer(ctx context.Context, r *run, h *history, tr *tracer) (*instance, time.Duration, error) {
	dir, err := r.tempDir("data")
	if err != nil {
		return nil, 0, err
	}
	if err := copyData(h.dir, dir); err != nil {
		return nil, 0, err
	}
	in := &instance{reg: telemetry.New(), tr: tr, accepted: map[string]int64{}, done: map[string]int64{}}
	var srv *server.Server
	setup, err := timeSetup(func() (err error) {
		srv, err = server.New(serverConfig(dir, tr, in.reg))
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	in.srv = srv
	var handler http.Handler = srv.Handler()
	if tr != nil {
		wctx, cancel := context.WithCancel(ctx)
		in.stopWait = cancel
		handler = &tracedHandler{inner: handler, tr: tr, onSubmit: func(id string) {
			in.mu.Lock()
			in.accepted[id] = tr.now()
			in.mu.Unlock()
			in.waiters.Add(1)
			go func() {
				defer in.waiters.Done()
				if _, err := srv.Wait(wctx, id); err == nil {
					in.mu.Lock()
					in.done[id] = tr.now()
					in.mu.Unlock()
				}
			}()
		}}
	}
	in.http = httptest.NewServer(handler)
	if tr != nil {
		in.rt = &countingTransport{inner: http.DefaultTransport, tr: tr}
	}
	return in, setup, nil
}

// newClient returns a client with default settings. When tracing, its
// HTTP client is the client's default one with the counting transport in
// front.
func (in *instance) newClient() *client.Client {
	if in.tr == nil {
		return &client.Client{BaseURL: in.http.URL}
	}
	return &client.Client{BaseURL: in.http.URL, HTTP: &http.Client{Timeout: 30 * time.Second, Transport: in.rt}}
}

func (in *instance) close() error {
	in.http.Close()
	err := in.srv.Close()
	if in.stopWait != nil {
		in.stopWait()
	}
	in.waiters.Wait()
	return err
}

// setupTimes starts and closes n servers on fresh copies of the history
// and returns their server.New times in seconds.
func setupTimes(ctx context.Context, r *run, h *history, n int) ([]float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		in, d, err := startServer(ctx, r, h, nil)
		if err != nil {
			return nil, err
		}
		if err := in.close(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// serverSetup times half the run's set-ups and returns the last server,
// left running for the load phase; finishSetup times the other half once
// the load phase is over. Spreading the set-ups over the run keeps one
// slow stretch of the machine from deciding their median.
func serverSetup(ctx context.Context, r *run, h *history) (*instance, []float64, error) {
	setups, err := setupTimes(ctx, r, h, r.cfg.size.setupReps/2)
	if err != nil {
		return nil, nil, err
	}
	in, d, err := startServer(ctx, r, h, nil)
	if err != nil {
		return nil, nil, err
	}
	return in, append(setups, d.Seconds()), nil
}

func finishSetup(ctx context.Context, r *run, h *history, setups []float64) ([]float64, error) {
	more, err := setupTimes(ctx, r, h, r.cfg.size.setupReps-len(setups))
	return append(setups, more...), err
}

// op is one client round trip of a server workload.
type op struct {
	kind string // fresh, overlap: misses; repeat, history, subset: hits
	spec server.JobSpec
	src  *op // the completed operation a dependent operation refers to
	hist []byte

	done   chan struct{}
	status server.JobStatus
	data   []byte
	err    error
	lat    time.Duration
}

func (o *op) miss() bool {
	return o.kind == "fresh" || o.kind == "overlap" || o.kind == "interactive" || o.kind == "bulk"
}

// mixSeq generates the server-mixed operations block by block from the
// workload seed, so the sequence never depends on timing. Each block is 4
// fresh sweeps, 1 sweep overlapping an earlier grid, 6 exact repeats of
// earlier sweeps, 4 repeats of history sweeps and 4 one-point subsets of
// earlier grids, shuffled: a fixed mix, so latency percentiles never
// straddle the gap between its kinds of operation. Dependent operations
// refer to fresh sweeps two blocks back, which have nearly always
// completed, and each of those is the source of exactly one subset.
type mixSeq struct {
	seed   uint64
	h      *history
	mu     sync.Mutex
	blocks [][]*op
	next   int
}

func (m *mixSeq) fresh(b int) []*op {
	var out []*op
	for _, o := range m.block(b) {
		if o.kind == "fresh" {
			out = append(out, o)
		}
	}
	return out
}

// block returns block b (b >= -2), generating it on first use; blocks -2
// and -1 prime the run with fresh sweeps only.
func (m *mixSeq) block(b int) []*op {
	for len(m.blocks) <= b+2 {
		m.blocks = append(m.blocks, nil)
	}
	if m.blocks[b+2] != nil {
		return m.blocks[b+2]
	}
	rnd := rand.New(rand.NewSource(int64(m.seed)*1_000_003 + int64(b)))
	base := m.seed<<24 + uint64(b+2)<<8
	var ops []*op
	for i := 0; i < 4; i++ {
		ops = append(ops, &op{kind: "fresh", spec: smallSweep(rnd, "bench", base+uint64(i), 1)})
	}
	if b >= 0 {
		src := m.fresh(b - 2)
		pick := func() *op { return src[rnd.Intn(len(src))] }
		s := pick()
		ov := s.spec
		ov.GMin, ov.GMax, ov.Points = s.spec.GMax, 2*s.spec.GMax, 2
		ops = append(ops, &op{kind: "overlap", spec: ov, src: s})
		for i := 0; i < 6; i++ {
			s := pick()
			ops = append(ops, &op{kind: "repeat", spec: s.spec, src: s})
		}
		for i := 0; i < 4; i++ {
			hs := m.h.specs[rnd.Intn(len(m.h.specs))]
			ops = append(ops, &op{kind: "history", spec: hs, hist: m.h.results[hs.Digest()]})
		}
		for _, s := range src {
			sub := s.spec
			sub.GMax, sub.Points = sub.GMin, 1
			ops = append(ops, &op{kind: "subset", spec: sub, src: s})
		}
		rnd.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	for _, o := range ops {
		o.done = make(chan struct{})
	}
	m.blocks[b+2] = ops
	return ops
}

// blockOps is the number of operations in a measured block.
const blockOps = 19

// take hands out the next operation of the measured blocks.
func (m *mixSeq) take() *op {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.block(m.next / blockOps)[m.next%blockOps]
	m.next++
	return o
}

// do runs one operation's round trip and marks it complete.
func (o *op) do(ctx context.Context, cl *client.Client) {
	if o.src != nil {
		select {
		case <-o.src.done:
		case <-ctx.Done():
		}
	}
	start := time.Now()
	o.status, o.data, o.err = cl.Run(ctx, o.spec)
	o.lat = time.Since(start)
	close(o.done)
}

// limit bounds a load phase: by a time window for end-to-end runs, or by
// a fixed amount of work for traced passes, whose counts must repeat.
type limit struct {
	window   time.Duration
	blocks   int
	deadline time.Time // set by from
}

// from starts the limit's window now.
func (l limit) from() limit {
	l.deadline = time.Now().Add(l.window)
	return l
}

func (l limit) more(started int, perBlock int) bool {
	if l.blocks > 0 {
		return started < l.blocks*perBlock
	}
	return time.Now().Before(l.deadline)
}

// runMixed primes the server with two blocks of fresh sweeps, then runs
// two closed-loop clients over the operation sequence until the limit.
// It returns the measured operations, every operation run, and the wall
// time of the measured phase.
func runMixed(ctx context.Context, in *instance, h *history, seed uint64, lim limit) ([]*op, []*op, time.Duration) {
	seq := &mixSeq{seed: seed, h: h}
	var prime []*op
	prime = append(prime, seq.block(-2)...)
	prime = append(prime, seq.block(-1)...)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := in.newClient()
			for i := c; i < len(prime); i += 2 {
				prime[i].do(ctx, cl)
			}
		}(c)
	}
	wg.Wait()

	var measured []*op
	var mu sync.Mutex
	start := time.Now()
	lim = lim.from()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := in.newClient()
			for {
				mu.Lock()
				if !lim.more(len(measured), blockOps) {
					mu.Unlock()
					return
				}
				o := seq.take()
				measured = append(measured, o)
				mu.Unlock()
				o.do(ctx, cl)
			}
		}()
	}
	wg.Wait()
	return measured, append(prime, measured...), time.Since(start)
}

// decodeResult parses a result.json.
func decodeResult(data []byte) (server.Result, error) {
	var res server.Result
	err := json.Unmarshal(data, &res)
	return res, err
}

// recompute runs every point of spec's sweep in-process through the same
// point function the server's driver uses, unsharded and unpreempted.
func recompute(ctx context.Context, spec server.JobSpec) ([][]stats.Bernoulli, error) {
	if spec.Workers == 0 {
		spec.Workers = 1
	}
	p := exp.MCParams{Trials: spec.Trials, Workers: spec.Workers, Seed: spec.Seed, Engine: spec.Engine}
	fn, n, err := exp.ShardableSweep(spec.Experiment, spec.Grid(), spec.MaxLevel, spec.Bits, p)
	if err != nil {
		return nil, err
	}
	out := make([][]stats.Bernoulli, n)
	for i := range out {
		if out[i], err = fn(ctx, i, 0, spec.Trials); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkComputed compares a computed result with its recomputation.
func checkComputed(ctx context.Context, o *op) error {
	res, err := decodeResult(o.data)
	if err != nil {
		return err
	}
	if res.SpecDigest != o.spec.Digest() || !reflect.DeepEqual(res.Grid, o.spec.Grid()) {
		return fmt.Errorf("result is for digest %.12s grid %v", res.SpecDigest, res.Grid)
	}
	want, err := recompute(ctx, o.spec)
	if err != nil {
		return err
	}
	if len(res.Points) != len(want) {
		return fmt.Errorf("%d points, recomputation has %d", len(res.Points), len(want))
	}
	for i, p := range res.Points {
		if !reflect.DeepEqual(p.Ests, want[i]) {
			return fmt.Errorf("point %d: %v, recomputation %v", i, p.Ests, want[i])
		}
	}
	return nil
}

// checkSubset compares a subset result's points with its source's.
func checkSubset(o *op) error {
	res, err := decodeResult(o.data)
	if err != nil {
		return err
	}
	src, err := decodeResult(o.src.data)
	if err != nil {
		return err
	}
	if res.SpecDigest != o.spec.Digest() || !reflect.DeepEqual(res.Grid, o.spec.Grid()) {
		return fmt.Errorf("result is for digest %.12s grid %v", res.SpecDigest, res.Grid)
	}
	for i, g := range res.Grid {
		j := sort.SearchFloat64s(src.Grid, g)
		if j == len(src.Grid) || src.Grid[j] != g {
			return fmt.Errorf("grid value %g is not in the source grid", g)
		}
		if !reflect.DeepEqual(res.Points[i].Ests, src.Points[j].Ests) {
			return fmt.Errorf("point at g=%g differs from the source result", g)
		}
	}
	return nil
}

// checkOps verifies every operation's output, recomputing misses on two
// goroutines, and counts the operations into the run.
func checkOps(ctx context.Context, r *run, ops []*op) {
	work := make(chan *op)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				r.attempt()
				err := o.err
				if err == nil {
					switch o.kind {
					case "fresh", "overlap", "interactive", "bulk":
						err = checkComputed(ctx, o)
					case "repeat", "refetch":
						if !bytes.Equal(o.data, o.src.data) {
							err = fmt.Errorf("repeat differs from its source result")
						}
					case "history":
						if !bytes.Equal(o.data, o.hist) {
							err = fmt.Errorf("repeat differs from the history result")
						}
					case "subset":
						err = checkSubset(o)
					}
				}
				if err != nil {
					r.fail("%s job (%s %s seed %d): %v", o.kind, o.spec.Experiment, o.spec.Engine, o.spec.Seed, err)
				}
			}
		}()
	}
	for _, o := range ops {
		work <- o
	}
	close(work)
	wg.Wait()
}

func latencies(ops []*op, miss bool) []float64 {
	var out []float64
	for _, o := range ops {
		if o.err == nil && o.miss() == miss {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

func setLatencies(r *run, ops []*op) {
	for _, k := range []struct {
		name string
		miss bool
		q    float64
	}{{"miss", true, 0.9}, {"hit", false, 0.75}} {
		xs := latencies(ops, k.miss)
		// A failed operation misses every latency limit.
		for _, o := range ops {
			if o.err != nil && (o.miss() == k.miss) {
				xs = append(xs, ms(time.Hour))
			}
		}
		r.m.set(k.name+"_p50_ms", median(xs), len(xs))
		r.m.set(fmt.Sprintf("%s_p%d_ms", k.name, int(100*k.q)), percentile(xs, k.q), len(xs))
	}
}

func runServerMixed(ctx context.Context, r *run, h *history) error {
	in, setups, err := serverSetup(ctx, r, h)
	if err != nil {
		return err
	}
	window := r.cfg.seconds
	if r.cfg.trace {
		window /= 2
	}
	lim := limit{window: window}
	if r.cfg.trace {
		lim = limit{blocks: traceBlocks(window)}
	}
	stopRSS := sampleRSS()
	ops, all, wall := runMixed(ctx, in, h, r.cfg.seed, lim)
	r.m.set("rss_mb", stopRSS(), 1)
	if err := in.close(); err != nil {
		return err
	}
	if setups, err = finishSetup(ctx, r, h, setups); err != nil {
		return err
	}
	checkOps(ctx, r, all)
	r.m.set("setup_s", median(setups), len(setups))
	setLatencies(r, ops)
	r.m.set("work_per_s", float64(len(ops))/wall.Seconds(), len(ops))
	if !r.cfg.trace {
		return nil
	}
	r.m.set("server.replay_ms_per_kjob", median(setups)*1000/(float64(len(h.specs))/1000), len(setups))

	tr := newTracer()
	r.tr = tr
	tin, _, err := startServer(ctx, r, h, tr)
	if err != nil {
		return err
	}
	tops, tall, twall := runMixed(ctx, tin, h, r.cfg.seed, lim)
	if err := tin.close(); err != nil {
		return err
	}
	checkOps(ctx, r, tall)
	r.m.set("telemetry.trace_overhead_frac", twall.Seconds()/wall.Seconds()-1, 2)
	serverRows(r, tin, tops)
	return nil
}

// traceBlocks sizes a traced pass: one block of operations per second of
// its share of the run.
func traceBlocks(window time.Duration) int {
	if b := int(window.Seconds()); b > 1 {
		return b
	}
	return 1
}

// serverRows derives the server, result cache, client and sweep rows of a
// traced pass from its spans.
func serverRows(r *run, in *instance, ops []*op) {
	spans := in.tr.snapshot()
	digestJob := map[string]string{}
	var submits, lookups, fsyncs, cacheReads []float64
	var submitted, hitSubmits, reused, readCount int
	for _, s := range spans {
		switch {
		case s.Name == "http.submit" && !s.Err:
			submits = append(submits, float64(s.dur())/1e6)
			digestJob[s.Attr] = s.Job
			submitted++
			reused += int(s.N)
			if s.Note == server.CacheHit {
				hitSubmits++
			}
		case s.Name == "http.lookup":
			lookups = append(lookups, float64(s.dur())/1e6)
		case s.Name == "fs.journal.sync":
			fsyncs = append(fsyncs, float64(s.dur())/1e6)
		case s.Name == "fs.cache.read":
			cacheReads = append(cacheReads, float64(s.dur())/1e6)
			readCount++
		}
	}
	checkpoints, ckSyncs := atomicWrites(spans, "fs.sweep.", "/shard-")
	puts, _ := atomicWrites(spans, "fs.cache.", "/cache/")

	// Per computed job: accepted -> done, with its point spans, its
	// journal and filesystem spans, and its queue wait as children.
	type jobView struct {
		accepted, done int64
		points         [][2]int64
		other          [][2]int64
		firstPoint     int64
	}
	in.mu.Lock()
	jobs := map[string]*jobView{}
	for id, a := range in.accepted {
		if d, ok := in.done[id]; ok {
			jobs[id] = &jobView{accepted: a, done: d, firstPoint: -1}
		}
	}
	in.mu.Unlock()
	var trialsAll, trialsDone int64
	var driverMS []float64
	for _, s := range spans {
		if s.Name == "exp.driver" {
			driverMS = append(driverMS, float64(s.dur())/1e6)
		}
		if s.Name == "sweep.point" {
			trialsAll += s.N
			if !s.Err {
				trialsDone += s.N
			}
		}
		job := s.Job
		if s.Name == "sweep.point" {
			job = digestJob[s.Attr]
		}
		jv := jobs[job]
		if jv == nil || s.Name == "http.submit" {
			continue
		}
		iv := [2]int64{s.Start, s.End}
		if s.Name == "sweep.point" {
			jv.points = append(jv.points, iv)
			if jv.firstPoint < 0 || s.Start < jv.firstPoint {
				jv.firstPoint = s.Start
			}
		} else {
			jv.other = append(jv.other, iv)
		}
	}
	var waits, jobMS, selfFracs []float64
	var jobTotal, unexplained int64
	var computedPoints int
	for _, jv := range jobs {
		if jv.firstPoint < 0 {
			continue // served from the cache: no point ran
		}
		waits = append(waits, float64(jv.firstPoint-jv.accepted)/1e6)
		d := jv.done - jv.accepted
		jobMS = append(jobMS, float64(d)/1e6)
		children := append([][2]int64{{jv.accepted, jv.firstPoint}}, jv.points...)
		children = append(children, jv.other...)
		jobTotal += d
		unexplained += d - covered(jv.accepted, jv.done, children)
		lo, hi := jv.points[0][0], jv.points[0][1]
		for _, p := range jv.points {
			if p[0] < lo {
				lo = p[0]
			}
			if p[1] > hi {
				hi = p[1]
			}
		}
		if hi > lo {
			selfFracs = append(selfFracs, float64(hi-lo-covered(lo, hi, jv.points))/float64(hi-lo))
		}
		computedPoints += len(jv.points)
	}

	// client.poll_wait_ms: from the server finishing a job to the client
	// asking for its result, which it does as soon as its Wait returns.
	var pollWaits []float64
	fetched := map[string]bool{}
	for _, s := range spans {
		if s.Name != "client.request" || !strings.HasSuffix(s.Attr, "/result") || fetched[s.Job] {
			continue
		}
		if jv := jobs[s.Job]; jv != nil && jv.firstPoint >= 0 && s.Start >= jv.done {
			pollWaits = append(pollWaits, float64(s.Start-jv.done)/1e6)
			fetched[s.Job] = true
		}
	}

	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			r.m.set(name, mean(xs), len(xs))
		}
	}
	set("server.submit_ms", submits)
	set("server.lookup_ms", lookups)
	set("server.journal_fsync_ms", fsyncs)
	set("server.queue_wait_ms", waits)
	set("server.job_ms", jobMS)
	set("resultcache.get_ms", cacheReads)
	set("resultcache.put_ms", puts)
	set("sweep.checkpoint_ms", checkpoints)
	set("client.poll_wait_ms", pollWaits)
	set("exp.setup_ms", driverMS)
	set("sweep.self_frac", selfFracs)
	if submitted > 0 {
		r.m.set("server.journal_fsyncs_per_job", float64(len(fsyncs))/float64(submitted), submitted)
		r.m.set("resultcache.hit_frac", float64(hitSubmits)/float64(submitted), submitted)
		r.m.set("resultcache.reads_per_submit", float64(readCount)/float64(submitted), submitted)
	}
	r.m.set("resultcache.reused_points", float64(reused), submitted)
	if jobTotal > 0 {
		r.m.set("server.unexplained_frac", float64(unexplained)/float64(jobTotal), len(jobMS))
	}
	if trialsAll > 0 {
		r.m.set("server.useful_trial_frac", float64(trialsDone)/float64(trialsAll), 1)
	}
	r.m.set("sweep.trials", float64(trialsDone), computedPoints)
	r.m.set("sweep.converged_frac", 0, computedPoints) // no server workload job sets a stop rule
	if computedPoints > 0 {
		r.m.set("sweep.fsyncs_per_point", float64(ckSyncs)/float64(computedPoints), computedPoints)
	}
	r.m.set("server.preemptions", float64(in.reg.Snapshot().Counters["server.shard_preemptions"]), 1)
	r.m.set("client.requests_per_job", float64(in.rt.requests.Load())/float64(len(ops)), len(ops))
	r.m.set("client.retries", float64(in.rt.retryable.Load()), len(ops))
}

// The server-contended workload: one client streams bulk-priority
// two-point lanes512 recovery sweeps whose points each take about a
// second on a 2-vCPU Xeon, longer than the interactive jobs' arrival
// interval, sharded across the whole pool and submitted bulkAhead jobs
// ahead so the pool stays full; the other submits interactive one-point
// sweeps back to back, each followed by refetches repeats of the same
// request. Every sweep has its own seed, so every submission computes. A
// miss is an interactive round trip, a hit a repeat, and work_per_s the
// trials of completed bulk results per second in steady state.

const (
	bulkAhead = 2
	refetches = 4
)

func bulkSpec(seed uint64, i int, trials int) server.JobSpec {
	return server.JobSpec{
		Tenant: "bulk", Experiment: "recovery", GMin: 1e-3, GMax: 2e-3, Points: 2,
		Trials: trials, Seed: seed<<24 + uint64(i), Engine: exp.EngineLanes512,
		Shards: runtime.GOMAXPROCS(0), Priority: server.PriorityBulk,
	}
}

func interactiveSpec(seed uint64, i int, trials int) server.JobSpec {
	return server.JobSpec{
		Tenant: "interactive", Experiment: "recovery", GMin: 1.5e-3, GMax: 1.5e-3, Points: 1,
		Trials: trials, Seed: seed<<24 + 1<<20 + uint64(i), Engine: exp.EngineLanes512,
		Priority: server.PriorityInteractive,
	}
}

// runContended returns the interactive and repeat operations, the bulk
// operations, and the bulk trials per second.
func runContended(ctx context.Context, r *run, in *instance, lim limit) ([]*op, []*op, float64) {
	var bulk, inter []*op
	var mu sync.Mutex
	bulkDone := make(chan struct{})
	start := time.Now()
	lim = lim.from()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(bulkDone)
		cl := in.newClient()
		var pending []*op
		submit := func() {
			o := &op{kind: "bulk", spec: bulkSpec(r.cfg.seed, len(bulk), r.cfg.size.bulkTrials), done: make(chan struct{})}
			o.status, o.err = cl.Submit(ctx, o.spec)
			mu.Lock()
			bulk = append(bulk, o)
			mu.Unlock()
			pending = append(pending, o)
		}
		for i := 0; i < bulkAhead && lim.more(len(bulk), 1); i++ {
			submit()
		}
		for len(pending) > 0 {
			o := pending[0]
			pending = pending[1:]
			if o.err == nil {
				o.status, o.err = cl.Wait(ctx, o.status.ID)
			}
			if o.err == nil {
				o.data, o.err = cl.Result(ctx, o.status.ID)
			}
			o.lat = time.Since(start) // when the bulk job completed
			close(o.done)
			if lim.more(len(bulk), 1) {
				submit()
			}
		}
	}()
	go func() {
		defer wg.Done()
		cl := in.newClient()
		for i := 0; ; i++ {
			if lim.blocks > 0 {
				if len(inter) >= (1+refetches)*lim.blocks*r.cfg.size.interactivePerBulk {
					return
				}
			} else {
				select {
				case <-bulkDone:
					return
				default:
				}
			}
			o := &op{kind: "interactive", spec: interactiveSpec(r.cfg.seed, i, r.cfg.size.interactiveTrials), done: make(chan struct{})}
			o.do(ctx, cl)
			ops := []*op{o}
			for k := 0; k < refetches; k++ {
				again := &op{kind: "refetch", spec: o.spec, src: o, done: make(chan struct{})}
				again.do(ctx, cl)
				ops = append(ops, again)
			}
			mu.Lock()
			inter = append(inter, ops...)
			mu.Unlock()
		}
	}()
	wg.Wait()
	// Bulk throughput in steady state: the trials of the jobs completed
	// after the first one and within the window, over the time between
	// those completions, so neither filling the pool nor draining it
	// counts. Jobs complete in submission order.
	var steady []*op
	for _, o := range bulk {
		if o.err == nil && (lim.blocks > 0 || o.lat <= lim.window) {
			steady = append(steady, o)
		}
	}
	if len(steady) < 2 {
		return inter, bulk, 0
	}
	var trials float64
	for _, o := range steady[1:] {
		trials += float64(o.spec.Points * o.spec.Trials)
	}
	return inter, bulk, trials / (steady[len(steady)-1].lat - steady[0].lat).Seconds()
}

func runServerContended(ctx context.Context, r *run, h *history) error {
	in, setups, err := serverSetup(ctx, r, h)
	if err != nil {
		return err
	}
	window := r.cfg.seconds
	if r.cfg.trace {
		window /= 2
	}
	lim := limit{window: window}
	if r.cfg.trace {
		lim = limit{blocks: r.cfg.size.tracedBulk}
	}
	stopRSS := sampleRSS()
	start := time.Now()
	inter, bulk, rate := runContended(ctx, r, in, lim)
	wall := time.Since(start)
	r.m.set("rss_mb", stopRSS(), 1)
	if err := in.close(); err != nil {
		return err
	}
	if setups, err = finishSetup(ctx, r, h, setups); err != nil {
		return err
	}
	checkOps(ctx, r, append(inter, bulk...))
	r.m.set("setup_s", median(setups), len(setups))
	setLatencies(r, inter)
	r.m.set("work_per_s", rate, len(bulk))
	if !r.cfg.trace {
		return nil
	}
	r.m.set("server.replay_ms_per_kjob", median(setups)*1000/(float64(len(h.specs))/1000), len(setups))
	tr := newTracer()
	r.tr = tr
	tin, _, err := startServer(ctx, r, h, tr)
	if err != nil {
		return err
	}
	tstart := time.Now()
	tinter, tbulk, _ := runContended(ctx, r, tin, lim)
	twall := time.Since(tstart)
	if err := tin.close(); err != nil {
		return err
	}
	checkOps(ctx, r, append(tinter, tbulk...))
	r.m.set("telemetry.trace_overhead_frac", twall.Seconds()/wall.Seconds()-1, 2)
	serverRows(r, tin, append(tinter, tbulk...))
	return nil
}
