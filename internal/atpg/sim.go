package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// DetectsOBD reports whether the ordered vector pair detects the OBD fault
// under the gross-delay assumption: if the local excitation condition
// holds, the defective gate's output fails to complete its transition by
// capture time, so the faulty second-frame value at the fault site is the
// first-frame value; the fault is detected if that difference reaches a
// primary output (see fault.Respond and fault.Detects).
func DetectsOBD(c *logic.Circuit, f fault.OBD, tp TwoPattern) bool {
	good, faulty, excited := fault.Respond(c, tp.V1, tp.V2, f)
	return excited && fault.Detects(good, faulty, c.Outputs...)
}

// DetectsTransition reports whether the vector pair detects a classical
// transition fault (slow-to-rise/fall at a net) under the gross-delay
// assumption: the net must make the slow transition between the frames,
// and holding the old value in frame 2 must be observable at an output.
func DetectsTransition(c *logic.Circuit, f fault.Transition, tp TwoPattern) bool {
	g1 := c.Eval(tp.V1, nil)
	g2 := c.Eval(tp.V2, nil)
	var from, to logic.Value
	if f.Rising {
		from, to = logic.Zero, logic.One
	} else {
		from, to = logic.One, logic.Zero
	}
	if g1[f.Net] != from || g2[f.Net] != to {
		return false
	}
	faulty := c.Eval(tp.V2, map[string]logic.Value{f.Net: from})
	return fault.Detects(g2, faulty, c.Outputs...)
}

// DetectsStuckAt reports whether the single pattern detects the stuck-at
// fault.
func DetectsStuckAt(c *logic.Circuit, f fault.StuckAt, p Pattern) bool {
	good := c.Eval(p, nil)
	if v := good[f.Net]; !v.IsKnown() || v == f.V {
		return false
	}
	faulty := c.Eval(p, map[string]logic.Value{f.Net: f.V})
	return fault.Detects(good, faulty, c.Outputs...)
}

// GradeOBD fault-simulates a test set against an OBD fault list with the
// scalar reference simulator, one fault and one pair at a time. It is the
// semantic baseline the bit-parallel multicore Scheduler.GradeOBD is
// property-tested against.
func GradeOBD(c *logic.Circuit, faults []fault.OBD, tests []TwoPattern) Coverage {
	cov := Coverage{Total: len(faults)}
	for _, f := range faults {
		hit := false
		for _, tp := range tests {
			if DetectsOBD(c, f, tp) {
				hit = true
				break
			}
		}
		if hit {
			cov.Detected++
		} else {
			cov.Undetected = append(cov.Undetected, f.String())
		}
	}
	return cov
}

// ExhaustiveOBDAnalysis enumerates every ordered pair of distinct complete
// input vectors (the paper's "input transitions") and records which OBD
// faults each pair detects. It requires ≤16 primary inputs.
type ExhaustiveOBDAnalysis struct {
	Circuit    *logic.Circuit
	Faults     []fault.OBD
	Pairs      []TwoPattern
	DetectedBy [][]int // DetectedBy[p] = indices of faults detected by pair p
	Testable   []bool  // Testable[f] = some pair detects fault f
}

// TestableCount returns the number of faults detectable by at least one
// pair.
func (a *ExhaustiveOBDAnalysis) TestableCount() int {
	n := 0
	for _, t := range a.Testable {
		if t {
			n++
		}
	}
	return n
}

// GreedyCover returns a small pair set covering every testable fault,
// chosen greedily by marginal coverage (ties broken by pair order).
func (a *ExhaustiveOBDAnalysis) GreedyCover() []TwoPattern {
	covered := make([]bool, len(a.Faults))
	need := a.TestableCount()
	var out []TwoPattern
	for need > 0 {
		best, bestGain := -1, 0
		for pi, det := range a.DetectedBy {
			gain := 0
			for _, fi := range det {
				if !covered[fi] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = pi, gain
			}
		}
		if best < 0 {
			break
		}
		for _, fi := range a.DetectedBy[best] {
			if !covered[fi] {
				covered[fi] = true
				need--
			}
		}
		out = append(out, a.Pairs[best])
	}
	return out
}
