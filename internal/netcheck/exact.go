package netcheck

// The exact OBD prover. ProveOBD (untestable.go) is one-sided: built on
// implication closure, it can prove untestability but never testability.
// This file closes the gap with a complete decision procedure: every
// excitation pair of a fault becomes two SAT instances (frame-1
// justification, frame-2 excitation + propagation; see encode.go), and
// the CDCL solver decides each one outright. The outcome is a total
// verdict carrying its own evidence —
//
//   - Testable: a concrete two-pattern witness, replayable through the
//     gross-delay simulation every grader shares (fault.Respond and
//     fault.Detects, which atpg.DetectsOBD also runs);
//   - untestable: one refutation per excitation pair, each either a tied
//     -net pin conflict or a RUP proof the independent sat.Check accepts
//     against a CNF the verifier re-encodes from scratch;
//   - Aborted: the conflict budget ran out on some pair — an honest
//     "undecided", never silently converted to either side.
//
// VerifyExactVerdict trusts nothing from the prover: it rebuilds every
// CNF deterministically and replays witnesses by scalar simulation
// rather than through any CNF.

import (
	"fmt"

	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/sat"
)

// DefaultExactBudget is the per-instance conflict budget used when a
// caller (Analyze, the serve endpoint) asks for exact verdicts without
// choosing one. It decides the paper-scale circuits instantly and
// bounds the worst case on adversarial inputs; faults that exceed it
// come back Aborted rather than wrong.
const DefaultExactBudget = 50000

// ExactWitness is a testability certificate: a concrete two-pattern,
// named by the excitation pair it realizes.
type ExactWitness struct {
	Pair string                 `json:"pair"`
	V1   map[string]logic.Value `json:"v1"`
	V2   map[string]logic.Value `json:"v2"`
}

// ExactRefutation kills one excitation pair: either a tied net demands
// both values at the site gate (PinConflict), or the named frame's CNF
// is unsatisfiable with the attached RUP proof.
type ExactRefutation struct {
	Pair        string    `json:"pair"`
	Frame       int       `json:"frame"`
	PinConflict bool      `json:"pin_conflict,omitempty"`
	Proof       sat.Proof `json:"proof,omitempty"`
}

// ExactVerdict is the complete decision for one OBD fault. Exactly one
// of three shapes holds: Testable with a Witness; untestable (Testable
// and Aborted both false) with one refutation per excitation pair; or
// Aborted when some pair exhausted the conflict budget undecided.
type ExactVerdict struct {
	Fault    string            `json:"fault"`
	Testable bool              `json:"testable"`
	Aborted  bool              `json:"aborted,omitempty"`
	Reason   Reason            `json:"reason,omitempty"`
	Witness  *ExactWitness     `json:"witness,omitempty"`
	Pairs    []ExactRefutation `json:"pairs,omitempty"`
}

// ExactProofError reports why an exact verdict failed verification.
type ExactProofError struct {
	Fault string
	Pair  string // offending excitation pair ("" for verdict-level faults)
	Msg   string
	Err   error // underlying checker error, when one exists
}

// Error implements error.
func (e *ExactProofError) Error() string {
	s := "netcheck: exact verdict for " + e.Fault
	if e.Pair != "" {
		s += " pair " + e.Pair
	}
	s += ": " + e.Msg
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying checker error to errors.Is/As.
func (e *ExactProofError) Unwrap() error { return e.Err }

// ProveOBDExact decides one fault with no conflict budget: the verdict
// is never Aborted. The circuit must validate.
func ProveOBDExact(c *logic.Circuit, f fault.OBD) ExactVerdict {
	return ProveOBDExactBudget(c, f, 0)
}

// ProveOBDExactBudget is ProveOBDExact under a per-instance conflict
// budget (0 = unlimited); faults whose instances exceed it come back
// Aborted.
func ProveOBDExactBudget(c *logic.Circuit, f fault.OBD, budget int) ExactVerdict {
	v := ExactVerdict{Fault: f.String()}
	pairs := f.ExcitationPairs()
	if len(pairs) == 0 {
		v.Reason = ReasonNoExcitation
		return v
	}
	x := c.Index()
	refs := make([]ExactRefutation, 0, len(pairs))
	aborted := false
	for _, p := range pairs {
		d2, conf2 := demandByNet(f.Gate, p.V2)
		if conf2 {
			refs = append(refs, ExactRefutation{Pair: p.String(), Frame: 2, PinConflict: true})
			continue
		}
		d1, conf1 := demandByNet(f.Gate, p.V1)
		if conf1 {
			refs = append(refs, ExactRefutation{Pair: p.String(), Frame: 1, PinConflict: true})
			continue
		}
		b2, vars2 := obdFrame2(x, f, f.Gate.Eval(p.V1), d2)
		s2, st2 := b2.run(budget)
		if st2 == sat.Unsat {
			refs = append(refs, ExactRefutation{Pair: p.String(), Frame: 2, Proof: s2.Proof()})
			continue
		}
		if st2 == sat.Unknown {
			aborted = true
			continue
		}
		b1, vars1 := obdFrame1(x, d1)
		s1, st1 := b1.run(budget)
		if st1 == sat.Unsat {
			refs = append(refs, ExactRefutation{Pair: p.String(), Frame: 1, Proof: s1.Proof()})
			continue
		}
		if st1 == sat.Unknown {
			aborted = true
			continue
		}
		// Both frames satisfiable: the fault is testable, and the two
		// models ARE the two-pattern (the frames share no variables, so
		// independent solutions compose).
		v.Testable = true
		v.Witness = &ExactWitness{
			Pair: p.String(),
			V1:   inputsFrom(c, x, s1, vars1),
			V2:   inputsFrom(c, x, s2, vars2),
		}
		return v
	}
	if aborted {
		v.Aborted = true
		return v
	}
	v.Reason = ReasonPairsRefuted
	v.Pairs = refs
	return v
}

// ProveOBDExactList decides a fault list; the result is index-aligned
// with faults.
func ProveOBDExactList(c *logic.Circuit, faults []fault.OBD, budget int) []ExactVerdict {
	out := make([]ExactVerdict, len(faults))
	for i, f := range faults {
		out[i] = ProveOBDExactBudget(c, f, budget)
	}
	return out
}

// inputsFrom reads the primary-input assignment out of a model.
func inputsFrom(c *logic.Circuit, x *logic.Index, s *sat.Solver, vars []sat.Lit) map[string]logic.Value {
	out := make(map[string]logic.Value, len(c.Inputs))
	for i, in := range c.Inputs {
		out[in] = logic.FromBool(s.Value(int(vars[x.InputIDs[i]])))
	}
	return out
}

// VerifyExactVerdict replays an exact verdict's evidence from scratch:
// testable witnesses must detect the fault under an independent
// simulation, and untestable refutations must cover every excitation
// pair in order, with pin conflicts re-derived and every RUP proof
// accepted by sat.Check against a freshly re-encoded CNF. Aborted
// verdicts claim nothing and verify vacuously. The returned error is
// always a *ExactProofError.
func VerifyExactVerdict(c *logic.Circuit, f fault.OBD, v ExactVerdict) error {
	fail := func(pair, msg string, err error) error {
		return &ExactProofError{Fault: v.Fault, Pair: pair, Msg: msg, Err: err}
	}
	if v.Fault != f.String() {
		return fail("", fmt.Sprintf("verdict names fault %q, asked to verify %q", v.Fault, f.String()), nil)
	}
	if v.Aborted {
		return nil
	}
	if v.Testable {
		if v.Witness == nil {
			return fail("", "testable verdict carries no witness", nil)
		}
		good, faulty, excited := fault.Respond(c, v.Witness.V1, v.Witness.V2, f)
		if !excited || !fault.Detects(good, faulty, c.Outputs...) {
			return fail(v.Witness.Pair, "witness two-pattern does not detect the fault", nil)
		}
		return nil
	}
	pairs := f.ExcitationPairs()
	if len(v.Pairs) != len(pairs) {
		return fail("", fmt.Sprintf("untestable verdict refutes %d of %d excitation pairs", len(v.Pairs), len(pairs)), nil)
	}
	x := c.Index()
	for i, p := range pairs {
		ref := v.Pairs[i]
		if ref.Pair != p.String() {
			return fail(p.String(), fmt.Sprintf("refutation %d names pair %s", i, ref.Pair), nil)
		}
		d2, conf2 := demandByNet(f.Gate, p.V2)
		d1, conf1 := demandByNet(f.Gate, p.V1)
		if ref.PinConflict {
			// Re-derive the conflict; the prover checks frame 2 first.
			switch {
			case conf2:
				if ref.Frame != 2 {
					return fail(p.String(), "pin conflict claimed in the wrong frame", nil)
				}
			case conf1:
				if ref.Frame != 1 {
					return fail(p.String(), "pin conflict claimed in the wrong frame", nil)
				}
			default:
				return fail(p.String(), "claimed pin conflict does not exist", nil)
			}
			continue
		}
		if conf2 || conf1 {
			return fail(p.String(), "pair has a pin conflict but the refutation claims a proof", nil)
		}
		var b *cnfBuilder
		switch ref.Frame {
		case 2:
			b, _ = obdFrame2(x, f, f.Gate.Eval(p.V1), d2)
		case 1:
			b, _ = obdFrame1(x, d1)
		default:
			return fail(p.String(), fmt.Sprintf("refutation names frame %d", ref.Frame), nil)
		}
		if err := sat.Check(b.nv, b.clauses, ref.Proof); err != nil {
			return fail(p.String(), fmt.Sprintf("frame-%d refutation rejected", ref.Frame), err)
		}
	}
	return nil
}

// ExactReport aggregates per-fault exact verdicts for Analyze and the
// serve endpoint ("sat" stanza).
type ExactReport struct {
	Faults     int            `json:"faults"`
	Testable   int            `json:"testable"`
	Untestable int            `json:"untestable"`
	Aborted    int            `json:"aborted"`
	Verdicts   []ExactVerdict `json:"verdicts"`
}

// ExactAnalyze decides the circuit's full OBD universe under the given
// per-instance conflict budget (0 = DefaultExactBudget).
func ExactAnalyze(c *logic.Circuit, budget int) *ExactReport {
	if budget == 0 {
		budget = DefaultExactBudget
	}
	faults, _ := fault.OBDUniverse(c)
	r := &ExactReport{Faults: len(faults)}
	r.Verdicts = ProveOBDExactList(c, faults, budget)
	for _, v := range r.Verdicts {
		switch {
		case v.Aborted:
			r.Aborted++
		case v.Testable:
			r.Testable++
		default:
			r.Untestable++
		}
	}
	return r
}
