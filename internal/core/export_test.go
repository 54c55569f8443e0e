package core

import (
	"revft/internal/lanes"
	"revft/internal/noise"
)

// LaneAudit runs the lane audit of t for in on its 8-word program with
// the given plan budget and returns its d and failing single faults.
func LaneAudit(t Target, in Input, budget int) (int, []FaultCase) {
	a := t.auditLanes(t.CompileWide(noise.Uniform(0), 8), in, budget)
	return a.d, a.fails
}

// SetCompactBelow sets the walked-fraction crossover below which lane
// batches compact and returns the old value: 2 forces compaction
// wherever the audit allows it, -1 walks every lane.
func SetCompactBelow(f float64) float64 {
	old := compactBelow
	compactBelow = f
	return old
}

// AuditBudget is the lane audit's plan budget.
const AuditBudget = auditBudget

// SpareLaneBuffers is how many compacting batches' fault buffers t keeps
// for its next estimates.
func SpareLaneBuffers(t Target) int {
	t.certs.mu.Lock()
	defer t.certs.mu.Unlock()
	return len(t.certs.spare)
}

// CachedProgram is the compiled program t keeps for its next estimates,
// nil before its first lane estimate.
func CachedProgram(t Target) *lanes.WideProgram {
	t.certs.mu.Lock()
	defer t.certs.mu.Unlock()
	return t.certs.prog.prog
}

// LaneProgram is the program t's lane estimates under m at words run.
func LaneProgram(t Target, m noise.Model, words int) *lanes.WideProgram {
	return t.program(m, words)
}
