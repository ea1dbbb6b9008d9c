// ATPG layer of the public facade: PODEM-based generation for the OBD,
// transition and stuck-at models, exact fault grading, exhaustive pair
// analysis, and the deterministic multicore scheduler with its hardened
// (typed-error, panic-confined, cancellable) batch entry points.
package gobd

import (
	"gobd/internal/atpg"
)

// ATPG layer.
type (
	// Pattern is a primary-input assignment.
	Pattern = atpg.Pattern
	// TwoPattern is an ordered vector pair.
	TwoPattern = atpg.TwoPattern
	// ATPGOptions tunes the generators.
	ATPGOptions = atpg.Options
	// Coverage summarizes a fault-grading run.
	Coverage = atpg.Coverage
	// Scheduler is the deterministic worker pool; batch generation,
	// grading and analysis are its methods (GOMAXPROCS workers when nil).
	Scheduler = atpg.Scheduler
	// WorkerStats is one worker's share of a scheduler run.
	WorkerStats = atpg.WorkerStats
	// SATStats counts how ATPGOptions.SATFallback resolved PODEM aborts
	// (Aborts == Detected + Untestable + Undecided).
	SATStats = atpg.SATStats
)

// Test generation and fault simulation; batch runs are Scheduler
// methods, e.g. NewScheduler(0).GenerateOBDTests(c, faults, opt).
var (
	// GenerateOBDTest produces a two-pattern test for one OBD fault.
	GenerateOBDTest = atpg.GenerateOBDTest
	// DetectsOBD fault-simulates one vector pair against one OBD fault.
	DetectsOBD = atpg.DetectsOBD
	// NewScheduler builds a scheduler with an explicit worker count.
	NewScheduler = atpg.NewScheduler
)

// Hardened scheduler layer: typed errors, panic confinement and
// context-aware batch runs.
type (
	// InvalidCircuitError reports a batch entry point given a circuit
	// failing validation.
	InvalidCircuitError = atpg.InvalidCircuitError
	// InputLimitError reports an exhaustive enumeration beyond the
	// supported primary-input count.
	InputLimitError = atpg.InputLimitError
	// PanicError is a worker panic confined to an ordinary error.
	PanicError = atpg.PanicError
	// ItemError ties a failure to its work-item index.
	ItemError = atpg.ItemError
	// RunReport is the outcome of a hardened ForEachCtx run.
	RunReport = atpg.RunReport
)
