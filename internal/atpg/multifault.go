package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// DetectsOBDMulti grades a vector pair against a set of SIMULTANEOUS OBD
// defects under the gross-delay model: every excited defect's gate output
// holds its first-frame value in the faulty second frame, with excitation
// judged on the good machine (see fault.Respond). The pair detects the
// ensemble if any primary output differs.
func DetectsOBDMulti(c *logic.Circuit, fs []fault.OBD, tp TwoPattern) bool {
	good, faulty, excited := fault.Respond(c, tp.V1, tp.V2, fs...)
	return excited && fault.Detects(good, faulty, c.Outputs...)
}

// ensembleName joins the member fault names of a multi-defect scenario.
func ensembleName(fs []fault.OBD) string {
	name := ""
	for i, f := range fs {
		if i > 0 {
			name += "+"
		}
		name += f.String()
	}
	return name
}
