package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file holds the package-level GradeOBDParallel entry point and
// atpg's two names for the event-driven grader. The engine itself is
// fault.PairGrader, the repo's one bit-parallel OBD engine; it lives in
// internal/fault so that netcheck's exact prover can grade with it too.

// PairGrader is the event-driven OBD grader (see fault.PairGrader).
type PairGrader = fault.PairGrader

// NewPairGrader packs a TwoPattern test set into a grader. The circuit
// must validate (grading entry points check first).
func NewPairGrader(c *logic.Circuit, tests []TwoPattern) *PairGrader {
	return fault.NewPairGrader(c, len(tests), func(i int) (v1, v2 map[string]logic.Value) {
		return tests[i].V1, tests[i].V2
	})
}

// GradeOBDParallel fault-simulates a test set against an OBD fault list
// using the 64-way engine sharded across the default scheduler's worker
// pool; it returns the same Coverage as GradeOBD (including the order of
// Undetected) for any worker count. The error is a typed
// *InvalidCircuitError when the circuit fails validation.
func GradeOBDParallel(c *logic.Circuit, faults []fault.OBD, tests []TwoPattern) (Coverage, error) {
	return DefaultScheduler().GradeOBD(c, faults, tests)
}
