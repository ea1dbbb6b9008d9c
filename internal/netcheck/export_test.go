package netcheck

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// ProveOBDExactListSATOnly is ProveOBDExactList on a prover whose
// simulation pass grades no pairs: every fault is decided by SAT.
func ProveOBDExactListSATOnly(c *logic.Circuit, faults []fault.OBD, budget int) []ExactVerdict {
	p := NewProver(c, budget)
	p.pg = fault.NewPairGrader(p.c, 0, nil)
	return p.census(faults).Verdicts
}

// SimulationDetects reports whether one of the exact prover's simulated
// pairs detects f, that is, whether its witness comes from simulation.
func SimulationDetects(c *logic.Circuit, f fault.OBD) bool {
	return NewProver(c, 0).witness(f) != nil
}
