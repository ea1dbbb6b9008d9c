package netcheck

// Constant nets, decided by the exact census's two passes (exact.go).
// Simulation goes first: a net that takes both values on the frame-1
// words of the census's seeded pairs is not constant. Every other gate
// output becomes one SAT instance, the net's fanin closure plus a unit
// clause holding the net at the value simulation never saw, solved on
// the prover's one reused proof-logging solver. UNSAT proves the net
// constant at the seen value, with a RUP proof VerifyConstant checks
// against a CNF it re-encodes from the circuit. The solver is complete,
// so every constant net is found unless its instance exhausts the
// conflict budget; such a net, like a satisfiable one, is not reported,
// so the list holds proven constants only.

import (
	"fmt"

	"gobd/internal/logic"
	"gobd/internal/sat"
)

// Constant is a net proved to hold one value under every primary-input
// assignment. Proof refutes the net's fanin closure with the net at the
// other value.
type Constant struct {
	Net   string      `json:"net"`
	Val   logic.Value `json:"val"`
	Proof sat.Proof   `json:"proof"`
}

// Constants finds the gate outputs that hold one value under every
// primary-input assignment, in c.Ordered() order: the static image of
// tied and reconvergent nets such as NAND(x, !x) ≡ 1. Primary inputs are
// free and never constant. A DFF-bearing circuit is decided over its
// combinational core, as the exact census is (see exactCore). Each
// instance runs under DefaultExactBudget conflicts. The circuit must
// validate.
func Constants(c *logic.Circuit) []Constant {
	return NewProver(c, DefaultExactBudget).constants()
}

// constants decides the constant nets of the prover's circuit: a net
// that took one value on the simulated frame 1 is probed with the other.
func (p *Prover) constants() []Constant {
	if p.c == nil {
		return nil
	}
	var out []Constant
	for _, g := range p.c.Ordered() {
		id := p.x.NetIDs[g.Output]
		if p.seen[id] == 3 {
			continue
		}
		val := logic.FromBool(p.seen[id] == 2)
		p.enc.frameUnits([]sideVal{{net: g.Output, val: val.Not()}})
		if p.solve() == sat.Unsat {
			out = append(out, Constant{Net: g.Output, Val: val, Proof: p.s.Proof()})
		}
	}
	return out
}

// ConstantProofError reports why a constant failed verification.
type ConstantProofError struct {
	Net string
	Msg string
	Err error // underlying checker error, when one exists
}

// Error implements error.
func (e *ConstantProofError) Error() string {
	s := "netcheck: constant " + e.Net + ": " + e.Msg
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying checker error to errors.Is/As.
func (e *ConstantProofError) Unwrap() error { return e.Err }

// VerifyConstant checks a constant's proof from scratch: it re-encodes
// the fanin closure of k.Net plus the unit holding it at the value
// opposite k.Val from the circuit (over the combinational core when the
// circuit has flip-flops, as Constants decides it) and runs sat.Check on
// that CNF.
// The returned error is always a *ConstantProofError.
func VerifyConstant(c *logic.Circuit, k Constant) error {
	fail := func(msg string, err error) error {
		return &ConstantProofError{Net: k.Net, Msg: msg, Err: err}
	}
	if err := c.Validate(); err != nil {
		return fail("circuit does not validate", err)
	}
	core, err := exactCore(c)
	if err != nil {
		return fail("combinational core extraction failed", err)
	}
	x := core.Index()
	if _, ok := x.NetIDs[k.Net]; !ok {
		return fail("no such net", nil)
	}
	if !k.Val.IsKnown() {
		return fail(fmt.Sprintf("claimed value %v is not 0 or 1", k.Val), nil)
	}
	e := newConeCNF(x)
	e.frameUnits([]sideVal{{net: k.Net, val: k.Val.Not()}})
	if err := sat.Check(e.nv, e.clauses, k.Proof); err != nil {
		return fail(fmt.Sprintf("refutation of %s=%v rejected", k.Net, k.Val.Not()), err)
	}
	return nil
}
