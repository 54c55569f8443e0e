package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"revft/internal/telemetry"
)

// sizes scales the workloads. fullSizes is what the benchmark command
// runs; the smoke tests use tinySizes.
type sizes struct {
	setupReps          int           // set-ups timed per run; setup_s is their median
	levelsCeiling      int           // threshold-sweep trial ceiling per estimate
	resumes            int           // threshold-sweep resumes after each computed sweep
	historyJobs        int           // terminal jobs in the server data dir at start
	bulkTrials         int           // trials per bulk point
	interactiveTrials  int           // trials of an interactive one-point sweep
	tracedBulk         int           // bulk jobs per traced server-contended pass
	interactivePerBulk int           // interactive jobs per bulk job in a traced pass
	layerSlice         time.Duration // one timing slice of a direct-call layer row
}

var fullSizes = sizes{
	setupReps: 15, levelsCeiling: 1 << 21, resumes: 20, historyJobs: 2000,
	bulkTrials: 1 << 27, interactiveTrials: 1 << 22, tracedBulk: 4, interactivePerBulk: 4,
	layerSlice: 25 * time.Millisecond,
}

var tinySizes = sizes{
	setupReps: 2, levelsCeiling: 1 << 14, resumes: 2, historyJobs: 16,
	bulkTrials: 1 << 16, interactiveTrials: 1 << 12, tracedBulk: 1, interactivePerBulk: 1,
	layerSlice: time.Millisecond,
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	work     string // scratch data, traces and the count ledger live here
	size     sizes
}

// run is one invocation's state: its measurements and the operations it
// attempted, with one message per operation that failed or produced
// wrong output.
type run struct {
	cfg     config
	m       metrics
	tr      *tracer
	scratch string

	mu        sync.Mutex
	attempted int
	failures  []string
}

func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *run) tempDir(prefix string) (string, error) { return os.MkdirTemp(r.scratch, prefix+"-") }

// workloads lists what --workload accepts. The first gatedWorkloads of
// them are the ones BENCHMARK.json gates; server-contended runs on
// request only, because its bulk throughput and hit latency swing by
// 20-30% between runs on a 2-vCPU VM, more than any bound can absorb.
var workloads = []string{"threshold-sweep", "server-mixed", "server-contended"}

const gatedWorkloads = 2

// manifest stamps every output: the program's own run manifest plus the
// machine and the workload.
type manifest struct {
	*telemetry.Manifest
	NumCPU   int    `json:"nproc"`
	Host     string `json:"host"`
	Workload string `json:"workload"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
}

func main() {
	code, err := runCLI(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// runCLI parses the command line, runs one workload and prints its
// result; it returns the exit code.
func runCLI(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: threshold-sweep, server-mixed or server-contended")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 emits the per-layer rows from a traced run, 0 the end-to-end metrics")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "directory for scratch data, span traces and the count ledger")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: *work, size: fullSizes}
	return execute(cfg, stdout)
}

// execute runs cfg and prints the metric table, the manifest and the
// result line; it returns 0 only if every operation succeeded with
// correct output.
func execute(cfg config, stdout io.Writer) (int, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return 2, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err := os.MkdirAll(filepath.Join(cfg.work, "scratch"), 0o755); err != nil {
		return 1, err
	}
	scratch, err := os.MkdirTemp(filepath.Join(cfg.work, "scratch"), cfg.workload+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)
	r := &run{cfg: cfg, m: metrics{}, scratch: scratch}
	host, _ := os.Hostname() // the host name only labels the output
	man := manifest{Manifest: telemetry.Collect("perfbench"), NumCPU: runtime.NumCPU(), Host: host,
		Workload: cfg.workload, Seconds: int(cfg.seconds.Seconds()), Traced: cfg.trace}
	man.Seed = cfg.seed

	ctx := context.Background()
	switch cfg.workload {
	case "threshold-sweep":
		err = runThreshold(ctx, r)
	default:
		var h *history
		if h, err = buildHistory(ctx, r); err != nil {
			break
		}
		if cfg.workload == "server-mixed" {
			err = runServerMixed(ctx, r, h)
		} else {
			err = runServerContended(ctx, r, h)
		}
	}
	if err == nil && cfg.trace {
		err = runLayers(ctx, r)
	}
	if err != nil {
		return 1, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		failedFrac := 0.0
		if r.attempted > 0 {
			failedFrac = float64(len(r.failures)) / float64(r.attempted)
		}
		r.m.set("failed_frac", failedFrac, r.attempted)
	}
	out := map[string]map[string]any{}
	manJSON, _ := json.Marshal(man) // a manifest holds only plain values
	fmt.Fprintf(stdout, "manifest %s\n", manJSON)
	fmt.Fprintf(stdout, "%-40s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		v, ok := r.m[d.name]
		switch {
		case !ok && !cfg.trace:
			r.fail("end-to-end metric %s was not measured", d.name)
		case math.IsNaN(v.value) || math.IsInf(v.value, 0):
			r.fail("metric %s is %v", d.name, v.value)
			v.value = 0
		}
		// A layer row the workload does not load reads 0 with 0 samples.
		fmt.Fprintf(stdout, "%-40s %16.6g %-6s %d\n", d.name, v.value, d.unit, v.n)
		out[d.name] = map[string]any{"value": v.value, "unit": d.unit}
	}
	if cfg.trace {
		if drift, err := checkCounts(r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: count ledger:", err)
		} else {
			for _, line := range drift {
				fmt.Fprintln(stdout, "COUNT DRIFT", line)
			}
		}
		path := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.writeJSONL(path, man); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		} else if r.tr != nil {
			fmt.Fprintln(stdout, "spans", path)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintln(stdout, "FAILED", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempted,
		"failed":    len(r.failures),
		"metrics":   out,
	})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if len(r.failures) > 0 {
		return 1, fmt.Errorf("%d of %d operations failed or produced wrong output", len(r.failures), r.attempted)
	}
	return 0, nil
}

// checkCounts compares this run's exact counts with the ledger entry of
// the last traced run of the same workload, seed and length, records the
// new values, and returns one line per count that changed.
func checkCounts(r *run) ([]string, error) {
	counts := map[string]float64{}
	for _, d := range perLayer {
		if v, ok := r.m[d.name]; ok && d.kind == kindExact {
			counts[d.name] = v.value
		}
	}
	path := filepath.Join(r.cfg.work, "counts", fmt.Sprintf("%s-seed%d-%ds.json", r.cfg.workload, r.cfg.seed, int(r.cfg.seconds.Seconds())))
	var drift []string
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, err
		}
		for name, v := range counts {
			if p, ok := prev[name]; ok && p != v {
				drift = append(drift, fmt.Sprintf("%s: %v before, %v now", name, p, v))
			}
		}
		sort.Strings(drift)
	}
	data, err := json.Marshal(counts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return drift, os.WriteFile(path, data, 0o644)
}
