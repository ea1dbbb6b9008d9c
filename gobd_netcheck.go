// Static-analysis layer of the public facade: netlist lint, SAT-proved
// constant nets and the exact SAT-backed OBD prover, both with checkable
// RUP certificates, and combinational equivalence checking.
package gobd

import (
	"gobd/internal/netcheck"
	"gobd/internal/sat"
)

// Static netlist analysis layer (cmd/obdlint front-end).
type (
	// NetReport is a full netcheck analysis: lint diagnostics, constant
	// nets, the exact OBD census with its untestability view, and a SCOAP
	// hard-fault ranking.
	NetReport = netcheck.Report
	// NetDiagnostic is one structural lint finding.
	NetDiagnostic = netcheck.Diagnostic
	// NetcheckOptions tunes the analysis passes.
	NetcheckOptions = netcheck.Options
	// OBDVerdict is the untestability view of one fault's exact verdict.
	OBDVerdict = netcheck.Verdict
)

// Static analysis entry points.
var (
	// AnalyzeNetlist runs every netcheck pass over a circuit.
	AnalyzeNetlist = netcheck.Analyze
	// LintNetlist runs only the structural lint pass.
	LintNetlist = netcheck.Lint
	// StaticConstants derives SAT-proved constant nets, each with a RUP
	// proof refuting its other value.
	StaticConstants = netcheck.Constants
	// VerifyConstantProof re-encodes a constant's CNF from the circuit
	// and checks its proof.
	VerifyConstantProof = netcheck.VerifyConstant
)

// Exact proof engine: complete SAT-decided OBD testability verdicts
// carrying independently checkable certificates — a replayable witness
// pair when testable, per-excitation-pair RUP refutations when not.
type (
	// ExactVerdict is one fault's complete SAT verdict with certificate.
	ExactVerdict = netcheck.ExactVerdict
	// ExactWitness is a testable verdict's two-pattern witness. Its maps
	// are read-only: witnesses of one list call may share them.
	ExactWitness = netcheck.ExactWitness
	// ExactRefutation rules out one excitation pair (pin conflict or
	// UNSAT proof).
	ExactRefutation = netcheck.ExactRefutation
	// ExactReport is the whole-universe census of exact verdicts.
	ExactReport = netcheck.ExactReport
	// ExactProofError is VerifyExactVerdict's typed rejection.
	ExactProofError = netcheck.ExactProofError
	// SATProof is a clause-by-clause RUP (reverse unit propagation)
	// certificate of unsatisfiability.
	SATProof = sat.Proof
)

// Exact proof entry points.
var (
	// ProveOBDExact decides one OBD fault exactly (no conflict budget).
	ProveOBDExact = netcheck.ProveOBDExact
	// ProveOBDExactList runs the exact prover over a fault list under a
	// conflict budget; exhausting it yields an honestly Aborted verdict,
	// never a wrong one.
	ProveOBDExactList = netcheck.ProveOBDExactList
	// VerifyExactVerdict independently re-derives a verdict's CNF and
	// checks its certificate (witness replay or RUP proof per pair).
	VerifyExactVerdict = netcheck.VerifyExactVerdict
	// ExactAnalyzeNetlist runs the exact prover over a circuit's whole
	// OBD universe (budget 0 = DefaultExactBudget conflicts per pair).
	ExactAnalyzeNetlist = netcheck.ExactAnalyze
	// CheckSATProof replays a RUP proof against a CNF with the
	// solver-independent checker.
	CheckSATProof = sat.Check
)

// DefaultExactBudget is the per-pair conflict budget the analysis and
// fallback paths use when none is given.
const DefaultExactBudget = netcheck.DefaultExactBudget

// Combinational equivalence checking over the same SAT core.
type (
	// EquivVerdict is a circuit-equivalence verdict: a proof when
	// equivalent, a distinguishing input assignment when not.
	EquivVerdict = netcheck.EquivVerdict
	// EquivError reports CEC interface mismatches (differing PI/PO sets).
	EquivError = netcheck.EquivError
	// OBDEquivVerdict is a fault-equivalence verdict: a proof that two
	// OBD faults are detected by exactly the same two-pattern tests, or a
	// distinguishing pair.
	OBDEquivVerdict = netcheck.OBDEquivVerdict
)

// Equivalence entry points.
var (
	// ProveEquiv decides combinational equivalence of two circuits with
	// matching PI/PO name sets.
	ProveEquiv = netcheck.ProveEquiv
	// VerifyEquivProof independently checks a ProveEquiv proof.
	VerifyEquivProof = netcheck.VerifyEquivProof
	// ProveOBDEquiv decides whether two OBD faults share a detection set.
	ProveOBDEquiv = netcheck.ProveOBDEquiv
	// VerifyOBDEquivProof independently checks a ProveOBDEquiv proof.
	VerifyOBDEquivProof = netcheck.VerifyOBDEquivProof
	// CertifyCollapseOBD proves every member of every CollapseOBDComplete
	// class detection-equivalent to its representative.
	CertifyCollapseOBD = netcheck.CertifyCollapseOBD
)
