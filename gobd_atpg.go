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
	// Scheduler is the deterministic worker pool behind the batch graders
	// and generators.
	Scheduler = atpg.Scheduler
	// WorkerStats is one worker's share of a scheduler run.
	WorkerStats = atpg.WorkerStats
	// SATStats counts how ATPGOptions.SATFallback resolved PODEM aborts
	// (Aborts == Detected + Untestable + Undecided).
	SATStats = atpg.SATStats
)

// Test generation and fault simulation.
var (
	// GenerateOBDTest produces a two-pattern test for one OBD fault.
	GenerateOBDTest = atpg.GenerateOBDTest
	// GenerateOBDTests runs the OBD generator over a fault list.
	GenerateOBDTests = atpg.GenerateOBDTests
	// GenerateTransitionTests runs the classical transition generator.
	GenerateTransitionTests = atpg.GenerateTransitionTests
	// GenerateStuckAtTests runs the classical stuck-at generator.
	GenerateStuckAtTests = atpg.GenerateStuckAtTests
	// DetectsOBD fault-simulates one vector pair against one OBD fault.
	DetectsOBD = atpg.DetectsOBD
	// GradeOBDParallel is the bit-parallel multicore grader; its Coverage
	// is bit-identical to the scalar reference engine for any worker count.
	GradeOBDParallel = atpg.GradeOBDParallel
	// NewScheduler builds a scheduler with an explicit worker count.
	NewScheduler = atpg.NewScheduler
	// SetDefaultWorkers resizes the pool behind the package-level
	// graders and generators.
	SetDefaultWorkers = atpg.SetDefaultWorkers
	// AnalyzeExhaustive enumerates all input transitions of a circuit.
	AnalyzeExhaustive = atpg.AnalyzeExhaustive
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

// Context-aware generator variants: same results as their plain
// counterparts, plus prompt cancellation with a deterministic prefix.
// The matching grading variants are Scheduler methods (GradeOBDCtx,
// GradeTransitionCtx, GradeStuckAtCtx) — the serving layer's hot path.
var (
	GenerateOBDTestsCtx        = atpg.GenerateOBDTestsCtx
	GenerateTransitionTestsCtx = atpg.GenerateTransitionTestsCtx
	GenerateStuckAtTestsCtx    = atpg.GenerateStuckAtTestsCtx
)
