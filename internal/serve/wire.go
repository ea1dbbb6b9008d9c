// Package serve is the HTTP/JSON serving layer over the repository's
// deterministic compute core: OBD/transition/stuck-at grading, ATPG,
// static netlist analysis and mission campaigns, exposed as versioned
// /v1/* endpoints with a result cache, single-flight request coalescing
// and bounded-admission backpressure.
//
// The core contract extends the scheduler's determinism to the wire:
// the same request body yields byte-identical JSON regardless of the
// server's worker count, cache state, or concurrent load. Everything
// wall-clock- or load-dependent (worker stats, cache hit counters)
// flows to /metrics, never into a /v1 response. See DESIGN.md §10.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/logic"
	"gobd/internal/mission"
	"gobd/internal/netcheck"
)

// Fault-model names accepted on the wire.
const (
	ModelOBD        = "obd"
	ModelTransition = "transition"
	ModelStuckAt    = "stuckat"
)

// WirePair is a two-pattern test on the wire: bit strings over the
// circuit's declared input order ('0', '1', 'X').
type WirePair struct {
	V1 string `json:"v1"`
	V2 string `json:"v2"`
}

// GradeRequest asks for fault coverage of a pattern set on a netlist.
type GradeRequest struct {
	// Netlist is the circuit in the internal/logic text format.
	Netlist string `json:"netlist"`
	// Model selects the fault universe: obd (default), transition, stuckat.
	Model string `json:"model,omitempty"`
	// Tests are the vector pairs to grade (obd and transition models).
	Tests []WirePair `json:"tests,omitempty"`
	// Patterns are the single vectors to grade (stuckat model).
	Patterns []string `json:"patterns,omitempty"`
}

// WireCoverage is a grading outcome on the wire.
type WireCoverage struct {
	Total      int      `json:"total"`
	Detected   int      `json:"detected"`
	Ratio      float64  `json:"ratio"`
	Undetected []string `json:"undetected,omitempty"`
}

// toWire converts an atpg.Coverage.
func toWire(c atpg.Coverage) WireCoverage {
	return WireCoverage{Total: c.Total, Detected: c.Detected, Ratio: c.Ratio(), Undetected: c.Undetected}
}

// GradeResponse is the /v1/grade reply. Sequential netlists are graded
// through their combinational core (vectors span the core's inputs:
// originals, then state bits in chain order) and report FFs.
type GradeResponse struct {
	Circuit     string       `json:"circuit"`
	Fingerprint string       `json:"fingerprint"`
	Model       string       `json:"model"`
	FFs         int          `json:"ffs,omitempty"` // flip-flop count (sequential requests)
	Faults      int          `json:"faults"`
	Tests       int          `json:"tests"`
	Coverage    WireCoverage `json:"coverage"`
}

// ATPGRequest asks for test generation on a netlist.
type ATPGRequest struct {
	Netlist string `json:"netlist"`
	// Model selects the generator: obd (default), transition, stuckat.
	Model string `json:"model,omitempty"`
	// Style selects the scan discipline for sequential (DFF-bearing)
	// netlists: enhanced, los, loc (obd model only). A sequential netlist
	// with no style defaults to enhanced; combinational requests leave it
	// empty, keeping their cache digests unchanged.
	Style string `json:"style,omitempty"`
	// Prune settles the faults netcheck's exact prover proves untestable
	// before PODEM (combinational OBD model only; see
	// atpg.Options.Prune).
	Prune bool `json:"prune,omitempty"`
	// MaxBacktracks overrides the per-fault PODEM backtrack limit (0 =
	// the package default; combinational generators only).
	MaxBacktracks int `json:"max_backtracks,omitempty"`
}

// ATPGResponse is the /v1/atpg reply. For sequential requests the pairs
// are patterns of the combinational core (original inputs in declaration
// order, then the state bits in chain order) and FFs/Style are set.
type ATPGResponse struct {
	Circuit     string       `json:"circuit"`
	Fingerprint string       `json:"fingerprint"`
	Model       string       `json:"model"`
	Style       string       `json:"style,omitempty"` // scan style (sequential requests)
	FFs         int          `json:"ffs,omitempty"`   // flip-flop count (sequential requests)
	Faults      int          `json:"faults"`
	Pairs       []WirePair   `json:"pairs,omitempty"`    // obd, transition
	Patterns    []string     `json:"patterns,omitempty"` // stuckat
	Detected    int          `json:"detected"`
	Untestable  int          `json:"untestable"`
	Aborted     int          `json:"aborted"`
	Errored     int          `json:"errored"`
	Coverage    WireCoverage `json:"coverage"`
}

// LintRequest asks for static netlist analysis.
type LintRequest struct {
	Netlist string `json:"netlist"`
	// SkipFaults disables the exact OBD census and hard-fault passes.
	SkipFaults bool `json:"skip_faults,omitempty"`
	// TopHard caps the hard-fault ranking length (0 = all).
	TopHard int `json:"top_hard,omitempty"`
}

// LintResponse is the /v1/lint reply: the full netcheck report plus the
// structural fingerprint (empty when the netlist does not validate —
// lint is exactly the endpoint that must accept broken circuits).
type LintResponse struct {
	Fingerprint string           `json:"fingerprint,omitempty"`
	Report      *netcheck.Report `json:"report"`
}

// MissionRequest runs a seeded concurrent-test mission campaign.
type MissionRequest struct {
	Netlist string `json:"netlist"`
	Seed    uint64 `json:"seed"`
	Chips   int    `json:"chips"`
	// Duration and Period are simulated seconds (0 period derives the
	// largest safe period from the observability window).
	Duration  float64 `json:"duration"`
	Period    float64 `json:"period,omitempty"`
	FaultRate float64 `json:"fault_rate"`
	// BISTCycles is the LFSR stream length per test interval (0 = 64).
	BISTCycles int `json:"bist_cycles,omitempty"`
	// Adversity is a profile spec: "off", "light", "heavy" or key=value list.
	Adversity           string `json:"adversity,omitempty"`
	IncludeUndetectable bool   `json:"include_undetectable,omitempty"`
	PerChip             bool   `json:"per_chip,omitempty"`
}

// MissionResponse is the /v1/mission reply.
type MissionResponse struct {
	Circuit     string          `json:"circuit"`
	Fingerprint string          `json:"fingerprint"`
	Report      *mission.Report `json:"report"`
}

// Wire error codes (the machine-matchable face of the core's typed
// errors; see DESIGN.md §10).
const (
	CodeBadJSON         = "bad-json"
	CodeBadNetlist      = "bad-netlist"
	CodeInvalidCircuit  = "invalid-circuit"
	CodeSequential      = "sequential-circuit"
	CodeInputLimit      = "input-limit"
	CodeBadRequest      = "bad-request"
	CodeMethod          = "method-not-allowed"
	CodeQueueFull       = "queue-full"
	CodeDeadline        = "deadline-exceeded"
	CodeShuttingDown    = "shutting-down"
	CodeInternal        = "internal"
	CodePayloadTooLarge = "payload-too-large"
)

// WireError is the typed error body every non-2xx /v1 response carries.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody wraps a WireError the way clients receive it.
type ErrorBody struct {
	Error WireError `json:"error"`
}

// apiError carries an HTTP status and wire code through the handler
// pipeline.
type apiError struct {
	status int
	code   string
	msg    string
}

// Error implements error.
func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.code, e.msg) }

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{status: 400, code: code, msg: fmt.Sprintf(format, args...)}
}

// coreError maps a compute-core error onto a typed wire error: the
// scheduler's *InvalidCircuitError, *SequentialCircuitError and
// *InputLimitError become 400s mirroring their messages, context
// deadline becomes 503, anything else a 500.
func coreError(err error) *apiError {
	var ice *atpg.InvalidCircuitError
	if errors.As(err, &ice) {
		return &apiError{status: 400, code: CodeInvalidCircuit, msg: ice.Error()}
	}
	var sce *atpg.SequentialCircuitError
	if errors.As(err, &sce) {
		return &apiError{status: 400, code: CodeSequential, msg: sce.Error()}
	}
	var ile *atpg.InputLimitError
	if errors.As(err, &ile) {
		return &apiError{status: 400, code: CodeInputLimit, msg: ile.Error()}
	}
	if errors.Is(err, errShuttingDown) {
		return &apiError{status: 503, code: CodeShuttingDown, msg: "server is draining"}
	}
	if errors.Is(err, errQueueFull) {
		return &apiError{status: 429, code: CodeQueueFull, msg: "work queue full; retry later"}
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	return &apiError{status: 500, code: CodeInternal, msg: err.Error()}
}

// parseNetlist reads the wire netlist, reporting syntax failures as
// bad-netlist and structural validation failures as invalid-circuit —
// the wire mirror of *logic parse errors and *InvalidCircuitError.
// Endpoints that tolerate invalid circuits (lint) pass validate=false
// and get the lenient parse: diagnosing broken circuits is their job.
func parseNetlist(src string, validate bool) (*logic.Circuit, *apiError) {
	if strings.TrimSpace(src) == "" {
		return nil, badRequest(CodeBadRequest, "netlist is required")
	}
	c, err := logic.ParseLenientString(src)
	if err != nil {
		return nil, badRequest(CodeBadNetlist, "%v", err)
	}
	if validate {
		if err := c.Validate(); err != nil {
			return nil, badRequest(CodeInvalidCircuit, "%v", (&atpg.InvalidCircuitError{Err: err}).Error())
		}
	}
	return c, nil
}

// parsePairs converts wire pairs to TwoPatterns.
func parsePairs(ps []WirePair, c *logic.Circuit) ([]atpg.TwoPattern, *apiError) {
	out := make([]atpg.TwoPattern, 0, len(ps))
	for i, wp := range ps {
		v1, err := atpg.ParsePattern(wp.V1, c)
		if err != nil {
			return nil, badRequest(CodeBadRequest, "tests[%d].v1: %v", i, err)
		}
		v2, err := atpg.ParsePattern(wp.V2, c)
		if err != nil {
			return nil, badRequest(CodeBadRequest, "tests[%d].v2: %v", i, err)
		}
		out = append(out, atpg.TwoPattern{V1: v1, V2: v2})
	}
	return out, nil
}

// digest is the cache/single-flight key of a request: the endpoint, the
// structural fingerprint (the primary shard key), and a hash over the
// CANONICALIZED request — the parsed netlist re-rendered by logic.Format
// (so whitespace and comment variants coalesce) plus the remaining
// request fields in canonical JSON. The canonical netlist keeps concrete
// gate and net names because responses are name-dependent (fault names
// derive from gate names); two isomorphic-but-renamed circuits share a
// fingerprint yet correctly occupy distinct cache entries.
func digest(endpoint string, fp logic.Fingerprint, canonicalNetlist string, params any) (string, error) {
	pj, err := json.Marshal(params)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(fp[:])
	h.Write([]byte{0})
	nl := sha256.Sum256([]byte(canonicalNetlist))
	h.Write(nl[:])
	h.Write([]byte{0})
	h.Write(pj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fingerprintOf computes the structural fingerprint, returning the zero
// fingerprint for circuits that fail validation (lint-only path).
func fingerprintOf(c *logic.Circuit) logic.Fingerprint {
	fp, err := c.Fingerprint()
	if err != nil {
		return logic.Fingerprint{}
	}
	return fp
}

// Parse spec of mission adversity up-front so bad specs are 400s.
func parseAdversity(spec string) (mission.Adversity, *apiError) {
	if spec == "" {
		spec = "off"
	}
	adv, err := mission.ParseAdversity(spec)
	if err != nil {
		return mission.Adversity{}, badRequest(CodeBadRequest, "%v", err)
	}
	return adv, nil
}
