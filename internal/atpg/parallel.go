package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file holds the package-level GradeOBDParallel entry point and the
// lane mask that the event-driven PairGrader (event.go), the repo's one
// bit-parallel OBD engine, clips its 64-lane words with. The excitation
// rule over 64 lanes is fault.OBD.ExcitedBits, which evaluates the site
// gate rather than its transistor networks.

// laneMask returns the mask selecting the first n of 64 lanes.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// GradeOBDParallel fault-simulates a test set against an OBD fault list
// using the 64-way engine sharded across the default scheduler's worker
// pool; it returns the same Coverage as GradeOBD (including the order of
// Undetected) for any worker count. The error is a typed
// *InvalidCircuitError when the circuit fails validation.
func GradeOBDParallel(c *logic.Circuit, faults []fault.OBD, tests []TwoPattern) (Coverage, error) {
	return DefaultScheduler().GradeOBD(c, faults, tests)
}
