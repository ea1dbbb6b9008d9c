package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// The SAT fallback (Options.SATFallback) closes PODEM's completeness
// gap: a backtrack-limited search can return Aborted, but the exact
// prover in internal/netcheck decides the same question outright — by
// grading seeded random pairs first, then frame-by-frame SAT over every
// excitation pair of a fault none of them detects. Each abort handed over
// comes back as a validated test, a proven-untestable verdict, or (only
// when the solver's own conflict budget runs out too) the original
// Aborted. The fallback never overrides a Detected or Untestable PODEM
// verdict, so enabling it can only improve accuracy.

// SATStats counts what the fallback did during one run. Aborts always
// equals Detected + Untestable + Undecided afterwards.
type SATStats struct {
	Aborts     int // PODEM aborts handed to the exact prover
	Detected   int // resolved: witness validated and committed as a test
	Untestable int // resolved: proven untestable with a checkable proof
	Undecided  int // solver conflict budget exhausted; verdict stays Aborted
}

// satResolveOBD runs the exact prover on one PODEM-aborted fault, on a
// prover from pv's pool. The returned status is Detected (with a
// simulator-validated two-pattern), Untestable, or Aborted when the
// prover's budget ran out as well.
func satResolveOBD(c *logic.Circuit, f fault.OBD, opt *Options, pv *podemView) (*TwoPattern, Status) {
	ev := pv.prove(f)
	var tp *TwoPattern
	st := Untestable
	switch {
	case ev.Testable:
		// The witness is complete by construction; the replay is a
		// belt-and-braces check so a prover bug can never commit a test
		// the simulator disagrees with.
		tp, st = &TwoPattern{V1: Pattern(ev.Witness.V1), V2: Pattern(ev.Witness.V2)}, Detected
		if !DetectsOBD(c, f, *tp) {
			tp, st = nil, Aborted
		}
	case ev.Aborted:
		st = Aborted
	}
	if s := opt.SATStats; s != nil {
		s.Aborts++
		switch st {
		case Detected:
			s.Detected++
		case Untestable:
			s.Untestable++
		default:
			s.Undecided++
		}
	}
	return tp, st
}
