package netcheck

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// ProveOBDExactListSATOnly is ProveOBDExactList with no simulated
// pairs: every fault is decided by SAT.
func ProveOBDExactListSATOnly(c *logic.Circuit, faults []fault.OBD, budget int) []ExactVerdict {
	return proveExactList(c, faults, budget, 0)
}

// SimulationDetects reports whether one of the exact prover's simulated
// pairs detects f, that is, whether its witness comes from simulation.
func SimulationDetects(c *logic.Circuit, f fault.OBD) bool {
	return newSimGrader(c, simPairs, nil).witness(f) != nil
}
