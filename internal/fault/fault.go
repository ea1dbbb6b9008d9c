package fault

import (
	"fmt"

	"gobd/internal/logic"
)

// OBD is a gate-oxide-breakdown fault in one transistor of a primitive
// static CMOS gate: the transistor on the given Side that is driven by the
// gate's Input-th input net.
type OBD struct {
	Gate  *logic.Gate
	Input int
	Side  Side
}

// String implements fmt.Stringer, e.g. "g7/NMOS@a". It concatenates
// rather than formats: the exact prover and coverage merges name every
// fault they decide.
func (f OBD) String() string {
	return f.Gate.Name + "/" + f.Side.String() + "@" + f.Gate.Inputs[f.Input]
}

// SlowRising reports the direction of the transition the defect slows:
// a pull-up (PMOS) defect produces a slow-to-rise output, a pull-down
// (NMOS) defect a slow-to-fall output.
func (f OBD) SlowRising() bool { return f.Side == PullUp }

// StuckAt is the classical single stuck-at fault on a net.
type StuckAt struct {
	Net string
	V   logic.Value // Zero or One
}

// String implements fmt.Stringer.
func (f StuckAt) String() string { return fmt.Sprintf("%s/sa%v", f.Net, f.V) }

// Transition is the classical transition (gate-delay) fault on a net:
// slow-to-rise or slow-to-fall, insensitive to which inputs caused the
// transition — the insensitivity the paper identifies as the reason
// traditional transition TPG under-tests OBD defects.
type Transition struct {
	Net    string
	Rising bool // true: slow-to-rise
}

// String implements fmt.Stringer.
func (f Transition) String() string {
	if f.Rising {
		return f.Net + "/str"
	}
	return f.Net + "/stf"
}

// EM is an intra-gate electromigration fault on a transistor's contact: a
// resistive degradation in series with the device. At the series-parallel
// abstraction its excitation coincides with OBD's (the transistor must
// carry the switching current alone), which reproduces the paper's Section
// 5 observation that EM and OBD test sets coincide for NAND/NOR; the
// models diverge only below gate level, where OBD additionally injects
// current through the gate oxide (see the analog EM-vs-OBD experiment).
type EM struct {
	Gate  *logic.Gate
	Input int
	Side  Side
}

// String implements fmt.Stringer.
func (f EM) String() string {
	return fmt.Sprintf("%s/EM-%v@%s", f.Gate.Name, f.Side, f.Gate.Inputs[f.Input])
}

// OBDUniverse enumerates every OBD fault in the circuit: one per
// transistor of every primitive gate, pin by pin with the PMOS defect
// before the NMOS one. Gates without a single-cell CMOS realization
// (BUF/AND/OR/XOR/XNOR) contribute none and are reported in skipped.
func OBDUniverse(c *logic.Circuit) (faults []OBD, skipped []*logic.Gate) {
	n := 0
	for _, g := range c.Gates {
		if primitive(g.Type) {
			n += 2 * len(g.Inputs)
		}
	}
	if n > 0 {
		faults = make([]OBD, 0, n)
	}
	for _, g := range c.Gates {
		if !primitive(g.Type) {
			skipped = append(skipped, g)
			continue
		}
		for i := range g.Inputs {
			faults = append(faults, OBD{Gate: g, Input: i, Side: PullUp}, OBD{Gate: g, Input: i, Side: PullDown})
		}
	}
	return faults, skipped
}

// EMUniverse enumerates every intra-gate EM fault (one per transistor of
// every primitive gate).
func EMUniverse(c *logic.Circuit) (faults []EM, skipped []*logic.Gate) {
	obd, sk := OBDUniverse(c)
	faults = make([]EM, len(obd))
	for i, f := range obd {
		faults[i] = EM(f)
	}
	return faults, sk
}

// StuckAtUniverse enumerates stuck-at-0/1 on every net (primary inputs and
// gate outputs; fanout-branch faults are not modeled separately).
func StuckAtUniverse(c *logic.Circuit) []StuckAt {
	var out []StuckAt
	add := func(n string) {
		out = append(out, StuckAt{Net: n, V: logic.Zero}, StuckAt{Net: n, V: logic.One})
	}
	for _, in := range c.Inputs {
		add(in)
	}
	for _, g := range c.Gates {
		add(g.Output)
	}
	return out
}

// TransitionUniverse enumerates slow-to-rise/fall on every net.
func TransitionUniverse(c *logic.Circuit) []Transition {
	var out []Transition
	add := func(n string) {
		out = append(out, Transition{Net: n, Rising: true}, Transition{Net: n, Rising: false})
	}
	for _, in := range c.Inputs {
		add(in)
	}
	for _, g := range c.Gates {
		add(g.Output)
	}
	return out
}
