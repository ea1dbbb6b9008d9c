package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
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

// satResolveOBD runs the exact prover on one PODEM-aborted fault. The
// returned status is Detected (with a simulator-validated two-pattern),
// Untestable, or Aborted when the prover's budget ran out as well.
func satResolveOBD(c *logic.Circuit, f fault.OBD, opt *Options) (*TwoPattern, Status) {
	if opt.SATStats != nil {
		opt.SATStats.Aborts++
	}
	//obdcheck:allow paniccontract — the encoder's DFF panic is unreachable: GenerateOBDTest(s) return Errored on DFF-bearing circuits before any fallback runs
	ev := netcheck.ProveOBDExactBudget(c, f, netcheck.DefaultExactBudget)
	switch {
	case ev.Testable:
		tp := &TwoPattern{V1: Pattern(ev.Witness.V1), V2: Pattern(ev.Witness.V2)}
		// The witness is complete by construction; the replay is a
		// belt-and-braces check so a prover bug can never commit a test
		// the simulator disagrees with.
		if DetectsOBD(c, f, *tp) {
			if opt.SATStats != nil {
				opt.SATStats.Detected++
			}
			return tp, Detected
		}
		if opt.SATStats != nil {
			opt.SATStats.Undecided++
		}
		return nil, Aborted
	case ev.Aborted:
		if opt.SATStats != nil {
			opt.SATStats.Undecided++
		}
		return nil, Aborted
	default:
		if opt.SATStats != nil {
			opt.SATStats.Untestable++
		}
		return nil, Untestable
	}
}
