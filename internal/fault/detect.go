package fault

import "gobd/internal/logic"

// Respond simulates the second frame of the two-pattern (v1, v2) under
// the gross-delay model with the defects fs present. A defect is excited
// when its gate's inputs are known in both good frames and Excited holds;
// its gate output then fails to complete the transition by capture time,
// so it holds its frame-1 value in the faulty frame 2. Excitation is
// judged on the good machine (defects are rare enough that upstream
// interaction before the capture edge is second-order; this is the
// standard multiple-fault extension of launch/capture grading). good and
// faulty hold every net's frame-2 value; faulty is good itself when no
// defect is excited. The circuit must validate.
func Respond(c *logic.Circuit, v1, v2 map[string]logic.Value, fs ...OBD) (good, faulty map[string]logic.Value, excited bool) {
	g1 := c.Eval(v1, nil)
	good = c.Eval(v2, nil)
	var held map[string]logic.Value
	for _, f := range fs {
		lv1 := make([]logic.Value, len(f.Gate.Inputs))
		lv2 := make([]logic.Value, len(f.Gate.Inputs))
		known := true
		for i, in := range f.Gate.Inputs {
			lv1[i], lv2[i] = g1[in], good[in]
			known = known && lv1[i].IsKnown() && lv2[i].IsKnown()
		}
		if !known || !f.Excited(lv1, lv2) {
			continue
		}
		if held == nil {
			held = make(map[string]logic.Value, len(fs))
		}
		held[f.Gate.Output] = g1[f.Gate.Output]
	}
	if held == nil {
		return good, good, false
	}
	return good, c.Eval(v2, held), true
}

// Detects reports whether some net among outputs carries a known value in
// both machines and the two values differ — the observation every
// gross-delay and stuck-at grader applies at the primary outputs.
func Detects(good, faulty map[string]logic.Value, outputs ...string) bool {
	for _, po := range outputs {
		a, b := good[po], faulty[po]
		if a.IsKnown() && b.IsKnown() && a != b {
			return true
		}
	}
	return false
}
