// Command revft-report generates a complete reproduction report: every
// analytic table, and (unless -fast) the full Monte Carlo experiment suite,
// rendered as markdown on stdout. This is the machine-generated counterpart
// of EXPERIMENTS.md.
//
// Usage:
//
//	revft-report [-fast] [-trials N] [-seed S] > report.md
//
// -debug-addr serves /metrics, /debug/vars, and /debug/pprof/ while the
// report generates, so long full-suite runs can be profiled live. The
// report itself opens with a provenance block (git revision, Go version,
// seed, GOMAXPROCS) from the run manifest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"revft/internal/exp"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "revft-report:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("revft-report", flag.ContinueOnError)
	var (
		fast      = fs.Bool("fast", false, "analytic tables only (skip Monte Carlo)")
		trials    = fs.Int("trials", 200000, "Monte Carlo trials per data point")
		workers   = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed      = fs.Uint64("seed", 1, "random seed")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this host:port while the report generates")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: need at least 1", *trials)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: need 0 (= GOMAXPROCS) or more", *workers)
	}

	man := telemetry.Collect("revft-report")
	man.Seed = *seed
	man.Trials = *trials
	man.Workers = *workers
	if *debugAddr != "" {
		reg := telemetry.New()
		telemetry.SetDefault(reg)
		d, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer d.Close()
		fmt.Fprintf(os.Stderr, "revft-report: debug server on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", d.Addr)
	}

	start := time.Now()
	fmt.Println("# Reversible Fault-Tolerant Logic — reproduction report")
	fmt.Println()
	fmt.Println("Generated by `revft-report`. Paper: Boykin & Roychowdhury, DSN 2005.")
	fmt.Println()
	fmt.Printf("- revision: `%s`\n- go: %s (%s/%s, GOMAXPROCS %d)\n- seed: %d, trials per point: %d\n- started: %s\n",
		man.Git, man.GoVersion, man.GOOS, man.GOARCH, man.GOMAXPROCS,
		man.Seed, man.Trials, man.StartedAt.Format(time.RFC3339))
	fmt.Println()

	fmt.Println("# Analytic regenerations")
	fmt.Println()
	for _, t := range exp.AllAnalytic() {
		fmt.Print(t.Markdown())
	}

	if !*fast {
		p := exp.MCParams{Trials: *trials, Workers: *workers, Seed: *seed}
		gs := stats.LogSpace(3e-4, 3e-2, 5)
		fmt.Println("# Monte Carlo measurements")
		fmt.Println()
		// Under a background context the drivers' only possible error is
		// a recovered trial panic.
		ctx, o := context.Background(), exp.SweepOptions{}
		recovery, err1 := exp.RecoveryCtx(ctx, gs, p, o)
		levels, err2 := exp.LevelsCtx(ctx, gs, 2, p, o)
		local, err3 := exp.LocalCtx(ctx, gs, p, o)
		adder, err4 := exp.AdderModuleCtx(ctx, 4, stats.LogSpace(3e-4, 5e-3, 4), p, o)
		initAbl, err5 := exp.InitAblation(ctx, stats.LogSpace(2e-3, 1e-2, 3), p)
		corr, err6 := exp.CorrelatedNoise(ctx, 5e-3, []float64{0, 0.25, 0.5, 0.75, 0.9}, p)
		inter, err7 := exp.InterleaveAblation(ctx, []float64{1e-3, 3e-3}, p)
		mem, err8 := exp.MemoryExperiment(ctx, 5e-3, []int{1, 5, 20, 50}, p)
		idle, err9 := exp.IdleNoise(ctx, 2e-3, []float64{0, 0.5, 1, 2}, p)
		if err := errors.Join(err1, err2, err3, err4, err5, err6, err7, err8, err9); err != nil {
			return err
		}
		tables := []*exp.Table{
			recovery, levels, local,
			exp.EntropyMeasured(stats.LogSpace(2e-3, 5e-2, 4), p),
			exp.VonNeumannChain(p),
			adder, initAbl, corr, inter, mem, idle,
		}
		for _, t := range tables {
			fmt.Print(t.Markdown())
		}
	}

	fmt.Printf("---\nreport generated in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
