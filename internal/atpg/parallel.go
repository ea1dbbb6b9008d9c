package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file holds atpg's two names for the event-driven grader that
// Scheduler.GradeOBD shards across the pool. The engine itself is
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
