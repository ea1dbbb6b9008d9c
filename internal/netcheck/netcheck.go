// Package netcheck is a multi-pass static analyzer over logic.Circuit
// netlists. It turns the repo's implicit structural invariants into
// checked, reported facts — before any simulation or PODEM search runs:
//
//   - a structural lint pass (Lint) producing typed diagnostics:
//     combinational cycles with the gate path named, floating and
//     multi-driven nets, gates whose output reaches no primary output,
//     dangling primary inputs, and scan-chain findings on sequential
//     netlists (floating D pins, unobservable state bits, self-looped
//     flip-flops);
//   - the exact OBD prover (Prover, exact.go), the one untestability
//     census: seeded random pairs graded on the event engine find
//     witnesses, and SAT decides the rest, so every verdict is testable
//     with a witness, untestable with RUP proofs, or Aborted under its
//     conflict budget;
//   - the constant-net lint (Constants, constant.go), decided by the
//     census's same two passes on the same Prover: a net that takes both
//     values on the simulated pairs is not constant, and SAT refutes the
//     other value of each remaining net with a RUP proof
//     (VerifyConstant);
//   - a SCOAP-backed hard-fault report (HardFaults) ranking the faults
//     the census did not prove untestable by controllability/
//     observability cost.
//
// Analyze bundles all passes into one Report; cmd/obdlint surfaces it as
// text or JSON, and atpg.Options.Prune discharges the census's
// untestable faults before PODEM runs.
package netcheck

import (
	"errors"
	"fmt"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// ErrUnknownSeverity is the sentinel under every Severity.UnmarshalText
// failure (matchable with errors.Is across the /v1/lint wire format).
var ErrUnknownSeverity = errors.New("netcheck: unknown severity")

// Severity classifies a lint diagnostic.
type Severity int

// Severities. Errors break evaluation semantics (Validate would refuse
// the circuit); warnings flag structure that simulates fine but usually
// indicates a netlist bug or dead silicon.
const (
	Warning Severity = iota
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalText makes severities render as words in JSON reports.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the MarshalText form, so JSON reports round-trip
// (the /v1/lint endpoint's clients decode them).
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("%w %q", ErrUnknownSeverity, b)
	}
	return nil
}

// Diagnostic codes produced by the lint pass.
const (
	CodeCycle       = "combinational-cycle"
	CodeUndriven    = "undriven-net"
	CodeMultiDriven = "multi-driven-net"
	CodeUnreachable = "unreachable-gate"
	CodeDanglingPI  = "dangling-input"
	CodeDupOutput   = "duplicate-output"
	CodeConstantNet = "constant-net"
	// Scan-chain diagnostics for sequential (DFF-bearing) netlists.
	CodeFFFloatingD     = "ff-floating-d"     // a flip-flop samples a net nothing drives
	CodeFFUnobservableQ = "ff-unobservable-q" // a state bit feeds no logic and no output
	CodeFFSelfLoop      = "ff-self-loop"      // D == Q: the bit can never change
)

// Diagnostic is one typed lint finding.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Net      string   `json:"net,omitempty"`  // net the finding is about
	Gate     string   `json:"gate,omitempty"` // gate the finding is about
	Path     []string `json:"path,omitempty"` // e.g. the gates on a cycle
	Message  string   `json:"message"`
}

// String implements fmt.Stringer.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%v[%s] %s", d.Severity, d.Code, d.Message)
}

// Report is the combined outcome of every netcheck pass over one circuit.
type Report struct {
	Circuit string `json:"circuit"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
	// FFs counts the circuit's flip-flops; when non-zero the fault-level
	// passes below ran over the combinational core (state bits as
	// pseudo-inputs, next-state functions as pseudo-outputs).
	FFs         int          `json:"ffs,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Constants lists the gate outputs proved to hold one value under
	// every input assignment, each with a RUP proof (empty unless the
	// circuit lints without Error diagnostics).
	Constants []Constant `json:"constants,omitempty"`
	// Verdicts holds one untestability verdict per fault of the circuit's
	// OBD universe, a view of Exact.Verdicts (nil when the universe was
	// not analyzed).
	Verdicts []Verdict `json:"verdicts,omitempty"`
	// HardFaults ranks the faults the census did NOT prove untestable by
	// SCOAP effort, hardest first.
	HardFaults []HardFault `json:"hard_faults,omitempty"`
	// Exact holds the complete SAT-backed verdicts (testable with
	// witness / untestable with proof / aborted) whenever the fault
	// passes run; the wire key is "sat".
	Exact *ExactReport `json:"sat,omitempty"`
}

// Verdict is the untestability view of one fault's exact verdict
// (ExactVerdict.Untestable): an Aborted verdict is not untestable.
type Verdict struct {
	Fault      string `json:"fault"`
	Untestable bool   `json:"untestable"`
	Reason     Reason `json:"reason,omitempty"`
}

// Errors reports how many Error-severity diagnostics the lint pass found.
func (r *Report) Errors() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// Options tunes Analyze.
type Options struct {
	// SkipFaults disables the OBD census and hard-fault passes (lint and
	// constants only).
	SkipFaults bool
	// TopHard caps the hard-fault ranking length (0 = all).
	TopHard int
}

// Analyze runs every pass that the circuit's structural health permits:
// lint always; constants, OBD verdicts and the hard-fault ranking only
// when lint found no Error diagnostics (the downstream passes assume a
// circuit Validate accepts). Sequential circuits are linted whole —
// including the scan-chain pass — and then analyzed through their
// combinational core, so the fault universe and every verdict name the
// same gates concurrent test hardware can actually reach.
func Analyze(c *logic.Circuit, opt Options) *Report {
	r := &Report{
		Circuit: c.Name,
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Gates:   len(c.Gates),
		FFs:     len(c.DFFs()),
	}
	r.Diagnostics = Lint(c)
	if r.Errors() > 0 {
		return r
	}
	if r.FFs > 0 {
		core, err := c.CombinationalCore()
		if err != nil {
			// Unreachable after a clean lint (a Q net colliding with a
			// primary input is multi-driven), but report rather than guess.
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Code:     CodeMultiDriven,
				Severity: Error,
				Message:  fmt.Sprintf("combinational core extraction failed: %v", err),
			})
			return r
		}
		c = core
	}
	p := NewProver(c, DefaultExactBudget)
	r.Constants = p.constants()
	for _, k := range r.Constants {
		r.Diagnostics = append(r.Diagnostics, Diagnostic{
			Code:     CodeConstantNet,
			Severity: Warning,
			Net:      k.Net,
			Message: fmt.Sprintf("net %q is structurally constant %v (proved by a %d-lemma RUP proof)",
				k.Net, k.Val, len(k.Proof)),
		})
	}
	if opt.SkipFaults {
		return r
	}
	faults, _ := fault.OBDUniverse(c)
	r.Exact = p.census(faults)
	r.Verdicts = make([]Verdict, len(faults))
	var surviving []fault.OBD
	for i, v := range r.Exact.Verdicts {
		r.Verdicts[i] = Verdict{Fault: v.Fault, Untestable: v.Untestable(), Reason: v.Reason}
		if !v.Untestable() {
			surviving = append(surviving, faults[i])
		}
	}
	r.HardFaults = HardFaults(c, surviving, opt.TopHard)
	return r
}
