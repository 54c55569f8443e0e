// Package telemetry is the observability layer for the Monte Carlo stack:
// a dependency-free metrics registry, a structured JSONL event sink, a run
// manifest, and a live debug HTTP endpoint (/metrics, expvar, pprof).
//
// The registry holds three metric kinds, all safe for concurrent use:
//
//   - Counter: a monotonically increasing atomic int64;
//   - Gauge: an atomic float64 set to the latest value;
//   - Histogram: fixed upper-bound buckets with an atomic count per bucket
//     plus total count and sum, so latency and throughput distributions
//     cost one atomic add per observation.
//
// Everything is nil-tolerant: every method on a nil *Registry, nil metric,
// or nil *Trace is a no-op that compiles to a pointer test, so
// instrumented hot paths run at full speed when telemetry is disabled and
// call sites need no "if enabled" guards.
//
// Snapshots are plain structs (JSON-encodable, mergeable with Merge), which
// is what the /metrics endpoint, the expvar export, and the trace sink all
// render from.
package telemetry

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default histogram bounds for sub-second latencies
// (batch execution, checkpoint writes): decades from 1µs to 10s.
var LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// WallBuckets are the default histogram bounds for long wall-clock spans
// (sweep points): 100ms to ~1h.
var WallBuckets = []float64{0.1, 0.5, 1, 5, 15, 60, 300, 900, 3600}

// Counter is a monotonically increasing atomic counter. The nil Counter
// discards everything.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value, 0 on nil.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically stored float64 holding the latest value set. The
// nil Gauge discards everything.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value, 0 on nil.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets. An
// observation lands in the first bucket whose bound is >= the value; values
// above every bound land in the implicit +Inf bucket. The nil Histogram
// discards everything.
type Histogram struct {
	bounds []float64      // sorted upper bounds; implicit +Inf bucket after
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot returns a consistent-enough copy for rendering: bucket counts
// are loaded individually, so a snapshot taken mid-run may be off by the
// observations in flight — acceptable for monitoring, never for results.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry is a named collection of metrics. The zero value is not usable;
// call New. All methods are safe for concurrent use, and every method on a
// nil *Registry returns a nil metric whose methods are no-ops — a disabled
// registry therefore costs one pointer test per call site.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. A later call with different bounds returns the existing
// histogram unchanged: bounds are fixed at creation so snapshots stay
// mergeable.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Uptime returns the time since the registry was created, 0 on nil.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// HistogramSnapshot is the frozen state of a histogram. Counts has one
// entry per bound plus the final +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// MergeError reports a shape mismatch found while merging snapshots: a
// histogram with different bucket bounds. Merge detects every mismatch
// before mutating anything, so a returned MergeError guarantees the
// receiver is unchanged.
type MergeError struct {
	Kind   string // "histogram"
	Metric string // metric name, "" when merging a bare HistogramSnapshot
	Detail string
}

func (e *MergeError) Error() string {
	if e.Metric == "" {
		return fmt.Sprintf("telemetry: merging %s: %s", e.Kind, e.Detail)
	}
	return fmt.Sprintf("telemetry: merging %s %q: %s", e.Kind, e.Metric, e.Detail)
}

// mergeable reports whether o can fold into s, with a description of the
// mismatch when it cannot. Empty sides are always compatible.
func (s *HistogramSnapshot) mergeable(o HistogramSnapshot) (bool, string) {
	if len(s.Bounds) == 0 && len(s.Counts) == 0 {
		return true, ""
	}
	if len(o.Counts) == 0 {
		return true, ""
	}
	if len(o.Bounds) != len(s.Bounds) {
		return false, fmt.Sprintf("%d vs %d bounds", len(o.Bounds), len(s.Bounds))
	}
	for i, b := range o.Bounds {
		if b != s.Bounds[i] {
			return false, fmt.Sprintf("different bounds (%g vs %g)", b, s.Bounds[i])
		}
	}
	return true, ""
}

// Merge adds o's observations into s. The bounds must match; on mismatch it
// returns a *MergeError and leaves s unchanged. Merging into an empty
// snapshot copies o (fresh slices, so s does not alias o's storage).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	ok, detail := s.mergeable(o)
	if !ok {
		return &MergeError{Kind: "histogram", Detail: detail}
	}
	s.mergeInto(o)
	return nil
}

// mergeInto applies a merge already validated by mergeable.
func (s *HistogramSnapshot) mergeInto(o HistogramSnapshot) {
	if len(s.Bounds) == 0 && len(s.Counts) == 0 {
		s.Bounds = append([]float64(nil), o.Bounds...)
		s.Counts = append([]int64(nil), o.Counts...)
		s.Count = o.Count
		s.Sum = o.Sum
		return
	}
	if len(o.Counts) == 0 {
		return
	}
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Snapshot is the frozen state of a whole registry — what /metrics, the
// expvar export, and trace metric events render.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters,omitempty"`
	Gauges        map[string]float64           `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. On nil it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	s.UptimeSeconds = r.Uptime().Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Merge folds o into s: counters and histogram buckets add; gauges take
// o's value when present. Merge is two-phase: every histogram bound set is
// validated first, so a shape mismatch returns a *MergeError with s
// completely unchanged — no partial mutation.
func (s *Snapshot) Merge(o Snapshot) error {
	// Phase 1: validate every mergeable pair before touching s.
	for name, oh := range o.Histograms {
		h := s.Histograms[name]
		if ok, detail := h.mergeable(oh); !ok {
			return &MergeError{Kind: "histogram", Metric: name, Detail: detail}
		}
	}
	// Phase 2: apply.
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] = v
	}
	for name, oh := range o.Histograms {
		h := s.Histograms[name]
		h.mergeInto(oh)
		s.Histograms[name] = h
	}
	s.UptimeSeconds = math.Max(s.UptimeSeconds, o.UptimeSeconds)
	return nil
}

// Clone returns a deep copy of s: mutating the clone (e.g. merging live
// attempt deltas into a persisted baseline) never touches the original.
func (s Snapshot) Clone() Snapshot {
	c := Snapshot{UptimeSeconds: s.UptimeSeconds}
	if s.Counters != nil {
		c.Counters = make(map[string]int64, len(s.Counters))
		for k, v := range s.Counters {
			c.Counters[k] = v
		}
	}
	if s.Gauges != nil {
		c.Gauges = make(map[string]float64, len(s.Gauges))
		for k, v := range s.Gauges {
			c.Gauges[k] = v
		}
	}
	if s.Histograms != nil {
		c.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for k, h := range s.Histograms {
			c.Histograms[k] = HistogramSnapshot{
				Bounds: append([]float64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
				Count:  h.Count,
				Sum:    h.Sum,
			}
		}
	}
	return c
}

// WriteMetrics renders the registry in the plain text /metrics format; see
// Snapshot.WriteText for the line grammar. Safe on a nil registry (writes
// only the header).
func (r *Registry) WriteMetrics(w io.Writer) error {
	return r.Snapshot().WriteText(w)
}

// WriteText renders the snapshot in the plain text /metrics format: one
// `name value` line per counter and gauge, and `name.count`, `name.sum`
// and cumulative `name.le.<bound>` lines per histogram, all sorted by
// name. Derived values (lanes.utilization) are appended when their
// inputs exist. The same renderer serves the process
// /metrics endpoint and merged per-job snapshots, so both expositions stay
// line-for-line comparable.
func (s Snapshot) WriteText(w io.Writer) error {
	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	for name, v := range s.Counters {
		add("%s %d", name, v)
	}
	for name, v := range s.Gauges {
		add("%s %g", name, v)
	}
	if slots := s.Counters["lanes.slots"]; slots > 0 {
		add("lanes.utilization %g", float64(s.Counters["lanes.trials"])/float64(slots))
	}
	for name, h := range s.Histograms {
		add("%s.count %d", name, h.Count)
		add("%s.sum %g", name, h.Sum)
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			add("%s.le.%g %d", name, b, cum)
		}
		add("%s.le.+Inf %d", name, h.Count)
	}
	sort.Strings(lines)
	if _, err := fmt.Fprintf(w, "# revft metrics, uptime %.3fs\n", s.UptimeSeconds); err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// defaultReg is the process-wide registry, nil until SetDefault. Commands
// enable it so code without a context (the entropy and von Neumann
// estimators) still reports; libraries and tests leave it nil.
var defaultReg atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil when telemetry is
// disabled.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs reg as the process-wide registry. Pass nil to
// disable.
func SetDefault(reg *Registry) { defaultReg.Store(reg) }

// ctxKey is the context key for a registry.
type ctxKey struct{}

// NewContext returns a context carrying reg, which Active retrieves.
func NewContext(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, ctxKey{}, reg)
}

// FromContext returns the registry attached to ctx, or nil.
func FromContext(ctx context.Context) *Registry {
	reg, _ := ctx.Value(ctxKey{}).(*Registry)
	return reg
}

// Active resolves the registry instrumentation should use: the context's,
// falling back to the process default. Returns nil when telemetry is off —
// and every metric method tolerates that, so callers may use the result
// unconditionally.
func Active(ctx context.Context) *Registry {
	if reg := FromContext(ctx); reg != nil {
		return reg
	}
	return Default()
}
