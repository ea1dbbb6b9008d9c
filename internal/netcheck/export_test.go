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

// CensusLoads decides faults on one prover and returns how many
// instances it loaded into its solver, with their variables and clauses
// summed over the instances.
func CensusLoads(c *logic.Circuit, faults []fault.OBD) (instances, vars, clauses int) {
	p := NewProver(c, DefaultExactBudget)
	p.census(faults)
	return p.loaded.instances, p.loaded.vars, p.loaded.clauses
}
