package main

import "fmt"

// Metric kinds. An exact count must read the same on every traced run of
// the same code, workload, seed and run length, and the benchmark flags
// it when it does not (see checkCounts); a timing count may differ.
const (
	kindValue = iota
	kindExact
	kindTiming // a count that depends on timing, such as polls or preemptions
)

type metricDef struct {
	name string
	unit string
	kind int
}

// endToEnd lists the metrics a user of the system sees, emitted by every
// untraced run of every workload. "miss" is an operation that runs Monte
// Carlo and "hit" one answered from stored results; each workload's doc
// in doc.go says which operations those are. Hits are gated at p75: on
// server-contended about one hit in seven waits for the scheduler behind
// the engine workers, so their p90 swings across that tail from run to
// run and cannot carry a bound.
var endToEnd = []metricDef{
	{"setup_s", "s", kindValue},
	{"miss_p50_ms", "ms", kindValue},
	{"miss_p90_ms", "ms", kindValue},
	{"hit_p50_ms", "ms", kindValue},
	{"hit_p75_ms", "ms", kindValue},
	{"work_per_s", "1/s", kindValue},
	{"rss_mb", "MB", kindValue},
}

// Circuits and engines the kernel and engine rows cover.
var (
	laneCircuits = []string{"recovery", "gadget2", "cycle2d", "cycle1d", "adder"}
	laneVariants = []string{"lanes", "k1", "k4", "k8"}
	coreCircuits = []string{"recovery", "gadget2", "adder"}
	engines      = []string{"scalar", "lanes", "lanes256", "lanes512"}
)

// perLayer lists the traced run's rows, named <module>.<quantity>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, c := range laneCircuits {
		for _, v := range laneVariants {
			out = append(out, metricDef{fmt.Sprintf("lanes.%s.%s.ns_per_op", c, v), "ns", kindValue})
		}
		for _, q := range []string{"ops", "fused", "samplers"} {
			out = append(out, metricDef{fmt.Sprintf("lanes.%s.%s", c, q), "count", kindExact})
		}
	}
	for _, c := range coreCircuits {
		for _, e := range engines {
			out = append(out, metricDef{fmt.Sprintf("core.%s.%s.ns_per_trial", c, e), "ns", kindValue})
		}
	}
	for _, e := range engines {
		out = append(out, metricDef{fmt.Sprintf("exp.local.%s.ns_per_trial", e), "ns", kindValue})
	}
	return append(out, []metricDef{
		{"sim.scaling_w2", "ratio", kindValue},
		{"telemetry.instrumented_frac", "ratio", kindValue},
		{"telemetry.trace_overhead_frac", "ratio", kindValue},
		{"exact.enumerate_ms", "ms", kindValue},
		{"exp.setup_ms", "ms", kindValue},
		{"sweep.trials", "count", kindExact},
		{"sweep.converged_frac", "ratio", kindValue},
		{"sweep.self_frac", "ratio", kindValue},
		{"sweep.checkpoint_ms", "ms", kindValue},
		{"sweep.fsyncs_per_point", "count", kindExact},
		{"sweep.trials_seed_spread", "ratio", kindValue},
		{"sweep.tolerance_seed_spread", "ratio", kindValue},
		{"server.replay_ms_per_kjob", "ms", kindValue},
		{"server.journal_fsync_ms", "ms", kindValue},
		{"server.journal_fsyncs_per_job", "count", kindExact},
		{"server.submit_ms", "ms", kindValue},
		{"server.lookup_ms", "ms", kindValue},
		{"server.queue_wait_ms", "ms", kindValue},
		{"server.job_ms", "ms", kindValue},
		{"server.unexplained_frac", "ratio", kindValue},
		{"server.preemptions", "count", kindTiming},
		{"server.useful_trial_frac", "ratio", kindValue},
		{"resultcache.get_ms", "ms", kindValue},
		{"resultcache.put_ms", "ms", kindValue},
		{"resultcache.hit_frac", "ratio", kindValue},
		{"resultcache.reused_points", "count", kindExact},
		{"resultcache.reads_per_submit", "count", kindTiming},
		{"client.poll_wait_ms", "ms", kindValue},
		{"client.requests_per_job", "count", kindTiming},
		{"client.retries", "count", kindTiming},
		{"failed_frac", "ratio", kindValue},
	}...)
}

// metric is one measured value and the number of samples behind it.
type metric struct {
	value float64
	n     int
}

// metrics collects a run's values by declared name.
type metrics map[string]metric

func (m metrics) set(name string, value float64, n int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				m[name] = metric{value: value, n: n}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is not declared")
}
