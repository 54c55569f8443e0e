package exp

import (
	"context"
	"fmt"
	"strings"

	"revft/internal/core"
	"revft/internal/entropy"
	"revft/internal/vonneumann"
)

// Engine names for MCParams.Engine.
const (
	// EngineScalar runs one trial at a time (sim.MonteCarloCtx). The
	// empty string selects it too.
	EngineScalar = "scalar"
	// EngineLanes runs 64 bit-sliced trials per batch: one 64-lane word
	// per wire through the word-program compiler
	// (lanes.CompileWide with words = 1).
	EngineLanes = "lanes"
	// EngineLanes256 runs 256 trials per batch on 4-word lane blocks.
	EngineLanes256 = "lanes256"
	// EngineLanes512 runs 512 trials per batch on 8-word lane blocks.
	EngineLanes512 = "lanes512"
)

// engines is the engine table: every accepted name with its lane-block
// width in 64-lane words, 0 for the scalar engine. ValidEngine,
// CheckEngine, EngineNames, and the words every driver passes to
// core.Target's estimators derive from it.
var engines = []struct {
	name  string
	words int
}{{EngineScalar, 0}, {EngineLanes, 1}, {EngineLanes256, 4}, {EngineLanes512, 8}}

// engineWords looks name up in the engine table ("" is EngineScalar).
func engineWords(name string) (words int, ok bool) {
	if name == "" {
		name = EngineScalar
	}
	for _, e := range engines {
		if e.name == name {
			return e.words, true
		}
	}
	return 0, false
}

// ValidEngine reports whether name selects a known engine ("" selects
// EngineScalar).
func ValidEngine(name string) bool {
	_, ok := engineWords(name)
	return ok
}

// EngineNames returns the accepted engine names in table order.
func EngineNames() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}

// CheckEngine returns nil for a known engine name and otherwise an error
// naming the accepted ones.
func CheckEngine(name string) error {
	if ValidEngine(name) {
		return nil
	}
	return fmt.Errorf("unknown engine %q (want %s)", name, strings.Join(EngineNames(), ", "))
}

// MCParams controls the Monte Carlo experiment drivers.
type MCParams struct {
	// Trials per data point.
	Trials int
	// Workers for the parallel harness (0 = GOMAXPROCS); speed only.
	Workers int
	// Seed makes every experiment reproducible.
	Seed uint64
	// Engine selects the execution engine for the drivers that support
	// more than one: EngineScalar (default), EngineLanes, EngineLanes256,
	// or EngineLanes512. The engines agree statistically but consume
	// randomness differently, so switching engines changes individual
	// estimates within their confidence intervals.
	Engine string
}

// wideWords returns the lane-block width of the selected engine in
// 64-lane words, or 0 for the scalar engine (and unknown names, which the
// drivers' callers reject with CheckEngine).
func (p MCParams) wideWords() int {
	w, _ := engineWords(p.Engine)
	return w
}

// rate is the failure rate t's Estimate measures from trial 0 over
// uniform inputs on the selected engine, with p's trials and workers.
func (p MCParams) rate(ctx context.Context, t core.Target, run core.Run, seed uint64) (float64, error) {
	res, err := t.Estimate(ctx, core.Uniform, run, p.wideWords(), 0, p.Trials, p.Workers, seed)
	return res.Rate(), err
}

// EntropyMeasured measures the ancilla entropy of one noisy recovery cycle
// against §4's per-cycle bounds.
func EntropyMeasured(gs []float64, p MCParams) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Measured ancilla entropy per recovery cycle vs §4 bounds (bits)",
		Header: []string{"g", "measured H", "lower H(g/2)", "upper E·(H(7g/8)+(7g/8)log₂7)", "within"},
	}
	for i, g := range gs {
		h := entropy.MeasuredRecoveryEntropy(g, p.Trials, p.Seed+uint64(i))
		lo := entropy.BinaryEntropy(g / 2)
		hi := float64(core.RecoveryOps) * entropy.PerGateEntropy(g)
		t.AddRow(g, h, lo, hi, h >= lo && h <= hi)
	}
	t.AddNote("measured entropy is the Shannon entropy of the joint distribution of the six discarded wires")
	return t
}

// VonNeumannChain measures the NAND-multiplexing baseline: decoded error of
// a depth-d chain of multiplexed NANDs, below and above its threshold.
func VonNeumannChain(p MCParams) *Table {
	t := &Table{
		ID:     "VN",
		Title:  "NAND-multiplexing chain error (bundle N = 100)",
		Header: []string{"eps", "depth-15 error", "depth-16 error", "bistable (analytic)"},
	}
	trials := p.Trials / 100
	if trials < 50 {
		trials = 50
	}
	// Above threshold the bundle fraction settles near a single fixed
	// level; depending on chain parity that can masquerade as a correct
	// decode, so both parities are reported.
	for i, eps := range []float64{0.001, 0.01, 0.03, 0.06, 0.09, 0.15} {
		u := vonneumann.Unit{N: 100, Eps: eps}
		err15 := vonneumann.ChainErrorRate(u, 15, trials, p.Seed+uint64(2*i))
		err16 := vonneumann.ChainErrorRate(u, 16, trials, p.Seed+uint64(2*i+1))
		t.AddRow(eps, err15, err16, vonneumann.Bistable(eps))
	}
	t.AddNote("analytic bistability threshold: %.4f (paper quotes \"about 11%%\" for multiplexing schemes)",
		vonneumann.Threshold())
	return t
}

func ciStr(lo, hi float64) string {
	return fmt.Sprintf("[%.3g, %.3g]", lo, hi)
}
