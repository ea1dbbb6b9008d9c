// Package seq models sequential circuits as a combinational core plus a
// scan chain of flip-flops, and implements the test-application styles the
// paper's Section 5 DFT discussion contrasts: two-pattern OBD tests need
// two specific vectors on consecutive clocks, which standard scan cannot
// deliver freely. Enhanced scan applies arbitrary pairs; launch-on-shift
// derives the second vector by shifting the chain; launch-on-capture
// (broadside) derives it through the circuit's own next-state function —
// each tighter constraint shrinks the reachable pair space and with it the
// OBD coverage.
//
// The primary entry points are netlist-first: FromCircuit lifts any
// DFF-bearing logic.Circuit into the scan model (chain order = netlist
// order), Insert stitches a scan model back into a flat netlist, and
// Unroll time-frame-expands the model into one combinational circuit the
// combinational ATPG/SAT stack runs unchanged. Test generation is unified
// behind the Style enum (Enhanced, LOS, LOC) and shared Options:
// GenerateTests / GenerateLOCTests for batches, Generate for one fault,
// StyleCoverage for exhaustive pair-space grading. All of them run one
// search (generate.go): a style's launch space is packed 64 pairs per
// machine word straight into the core's input words — a LOS state is the
// shifted frame-1 state word, a LOC state the evaluated frame-1 word of
// its flip-flop's D net — and graded chunk by chunk on the atpg package's
// event-driven engine, with fault dropping; no pair is built as a pattern
// map unless it is returned as a test. EnumeratePairs, which does
// materialize a space, remains as the small-circuit oracle. The older
// constructor New remains as a deprecated spelling of FromCircuit.
package seq

import (
	"fmt"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// FF is one scan flip-flop: its output Q feeds a core input (present
// state) and its input D is driven by a core net (next state).
type FF struct {
	Q string // core input net carrying the present state
	D string // core net captured as the next state
}

// Circuit is a sequential circuit: a combinational core whose inputs are
// the primary inputs plus the FF outputs, and whose nets drive the primary
// outputs and the FF inputs. FFs are listed in scan-chain order (index 0
// is the scan-in end).
type Circuit struct {
	Core *logic.Circuit
	FFs  []FF
	PIs  []string // core inputs that are true primary inputs
	POs  []string // observable core outputs
}

// ChainError is a typed scan-chain construction failure from FromCircuit,
// Insert or New: the flip-flop list does not fit the combinational core.
type ChainError struct{ Msg string }

func (e *ChainError) Error() string { return "seq: " + e.Msg }

// build validates and assembles the scan model shared by FromCircuit,
// Insert and the deprecated New.
func build(core *logic.Circuit, ffs []FF) (*Circuit, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	isQ := make(map[string]bool, len(ffs))
	for _, ff := range ffs {
		if !core.IsInput(ff.Q) {
			return nil, &ChainError{Msg: fmt.Sprintf("FF output %q is not a core input", ff.Q)}
		}
		if isQ[ff.Q] {
			return nil, &ChainError{Msg: fmt.Sprintf("core input %q fed by two flip-flops", ff.Q)}
		}
		isQ[ff.Q] = true
		if core.Driver(ff.D) == nil && !core.IsInput(ff.D) {
			return nil, &ChainError{Msg: fmt.Sprintf("FF input net %q is undriven", ff.D)}
		}
	}
	s := &Circuit{Core: core, FFs: ffs}
	for _, in := range core.Inputs {
		if !isQ[in] {
			s.PIs = append(s.PIs, in)
		}
	}
	s.POs = append(s.POs, core.Outputs...)
	return s, nil
}

// New validates and builds the sequential wrapper from an explicit core
// and flip-flop list.
//
// Deprecated: use FromCircuit on a DFF-bearing netlist, or Insert followed
// by FromCircuit to go through the flat form; New remains for callers that
// already hold a hand-built core.
func New(core *logic.Circuit, ffs []FF) (*Circuit, error) { return build(core, ffs) }

// State is a present-state assignment in scan-chain order.
type State []logic.Value

// AssignError is a typed pattern-assembly failure from CoreAssign: the
// state or primary-input assignment does not cover the core's inputs.
type AssignError struct{ Msg string }

func (e *AssignError) Error() string { return "seq: " + e.Msg }

// CoreAssign merges a state and a primary-input assignment into a complete
// core input pattern.
func (s *Circuit) CoreAssign(st State, pi atpg.Pattern) (atpg.Pattern, error) {
	if len(st) != len(s.FFs) {
		return nil, &AssignError{Msg: fmt.Sprintf("state width %d, want %d", len(st), len(s.FFs))}
	}
	p := make(atpg.Pattern, len(s.Core.Inputs))
	for i, ff := range s.FFs {
		p[ff.Q] = st[i]
	}
	for _, in := range s.PIs {
		v, ok := pi[in]
		if !ok {
			return nil, &AssignError{Msg: fmt.Sprintf("primary input %q unassigned", in)}
		}
		p[in] = v
	}
	return p, nil
}

// NextState evaluates the core under (state, pi) and returns the values
// captured by the flip-flops.
func (s *Circuit) NextState(st State, pi atpg.Pattern) (State, error) {
	assign, err := s.CoreAssign(st, pi)
	if err != nil {
		return nil, err
	}
	vals := s.Core.Eval(assign, nil)
	next := make(State, len(s.FFs))
	for i, ff := range s.FFs {
		next[i] = vals[ff.D]
	}
	return next, nil
}

// Style is a two-pattern test-application style — the one enum every
// generator in this package dispatches on.
type Style int

// Test-application styles, ordered by shrinking pair space: every LOS or
// LOC pair is also an enhanced-scan pair.
const (
	Enhanced Style = iota // arbitrary vector pairs (hold-scan cells)
	LOS                   // launch-on-shift: second state = 1-bit chain shift of the first
	LOC                   // launch-on-capture (broadside): second state = the circuit's own next state
)

// String implements fmt.Stringer.
func (m Style) String() string {
	switch m {
	case Enhanced:
		return "enhanced-scan"
	case LOS:
		return "launch-on-shift"
	case LOC:
		return "launch-on-capture"
	default:
		return fmt.Sprintf("Style(%d)", int(m))
	}
}

// ParseStyle resolves a style name: the CLI spellings "enhanced", "los",
// "loc" or the long String forms.
func ParseStyle(name string) (Style, error) {
	switch name {
	case "enhanced", "enhanced-scan":
		return Enhanced, nil
	case "los", "launch-on-shift":
		return LOS, nil
	case "loc", "launch-on-capture":
		return LOC, nil
	default:
		return 0, &StyleError{Name: name}
	}
}

// StyleError is a typed failure naming a Style outside the declared enum
// (Style set, Name empty) or an unparseable style name (Name set).
type StyleError struct {
	Style Style
	Name  string
}

func (e *StyleError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("seq: unknown style %q (want enhanced, los or loc)", e.Name)
	}
	return fmt.Sprintf("seq: unknown style %v", e.Style)
}

// enumLimit caps the number of nets a full 0/1 enumeration may span.
const enumLimit = 20

// EnumLimitError reports an enumeration request over more nets than the
// package's hard cap allows; the pair space would be at least 2^Nets.
type EnumLimitError struct {
	Nets  int // nets requested
	Limit int // the enumLimit cap
}

func (e *EnumLimitError) Error() string {
	return fmt.Sprintf("seq: enumeration over %d nets exceeds the %d-net limit", e.Nets, e.Limit)
}

// enumPatterns yields all complete 0/1 assignments of the named nets.
func enumPatterns(nets []string) ([]atpg.Pattern, error) {
	n := len(nets)
	if n > enumLimit {
		return nil, &EnumLimitError{Nets: n, Limit: enumLimit}
	}
	out := make([]atpg.Pattern, 0, 1<<uint(n))
	for m := 0; m < 1<<uint(n); m++ {
		p := make(atpg.Pattern, n)
		for i, net := range nets {
			p[net] = logic.FromBool(m&(1<<uint(i)) != 0)
		}
		out = append(out, p)
	}
	return out, nil
}

// maxPairSpaceBits bounds the enumerated pair spaces.
const maxPairSpaceBits = 18

// SpaceLimitError is a typed EnumeratePairs or StyleCoverage failure: the
// style's pair space needs more bits than maxPairSpaceBits allows to
// enumerate.
type SpaceLimitError struct {
	Mode  Style
	Bits  int // bits the space would span
	Limit int // the maxPairSpaceBits cap
}

func (e *SpaceLimitError) Error() string {
	return fmt.Sprintf("seq: %s pair space needs %d bits (limit %d)", e.Mode, e.Bits, e.Limit)
}

// styleBits returns the free-bit count of one style's pair space: the
// number of independent 0/1 choices that determine a deliverable pair.
func styleBits(s *Circuit, style Style) (int, error) {
	nCore, nPI := len(s.Core.Inputs), len(s.PIs)
	switch style {
	case Enhanced:
		return 2 * nCore, nil
	case LOS:
		return nCore + 1 + nPI, nil
	case LOC:
		return nCore + nPI, nil
	default:
		return 0, &StyleError{Style: style}
	}
}

// EnumeratePairs enumerates every vector pair the application style can
// deliver to the combinational core. The total search space must stay
// within maxPairSpaceBits bits. The generation search never materializes
// a space; this is the small-circuit oracle its pair-space tests check
// against.
func EnumeratePairs(s *Circuit, style Style) ([]atpg.TwoPattern, error) {
	bits, err := styleBits(s, style)
	if err != nil {
		return nil, err
	}
	if bits > maxPairSpaceBits {
		return nil, &SpaceLimitError{Mode: style, Bits: bits, Limit: maxPairSpaceBits}
	}
	v1s, err := enumPatterns(s.Core.Inputs)
	if err != nil {
		return nil, err
	}
	pi2s, err := enumPatterns(s.PIs)
	if err != nil {
		return nil, err
	}
	stateOf := func(p atpg.Pattern) State {
		st := make(State, len(s.FFs))
		for i, ff := range s.FFs {
			st[i] = p[ff.Q]
		}
		return st
	}
	var out []atpg.TwoPattern
	switch style {
	case Enhanced:
		for _, v1 := range v1s {
			for _, v2 := range v1s {
				out = append(out, atpg.TwoPattern{V1: v1, V2: v2})
			}
		}
	case LOS:
		for _, v1 := range v1s {
			st1 := stateOf(v1)
			for _, scanIn := range []logic.Value{logic.Zero, logic.One} {
				st2 := shiftState(st1, scanIn)
				for _, pi2 := range pi2s {
					v2, err := s.CoreAssign(st2, pi2)
					if err != nil {
						return nil, err
					}
					out = append(out, atpg.TwoPattern{V1: v1, V2: v2})
				}
			}
		}
	case LOC:
		for _, v1 := range v1s {
			st1 := stateOf(v1)
			pi1 := make(atpg.Pattern, len(s.PIs))
			for _, in := range s.PIs {
				pi1[in] = v1[in]
			}
			st2, err := s.NextState(st1, pi1)
			if err != nil {
				return nil, err
			}
			complete := true
			for _, v := range st2 {
				if !v.IsKnown() {
					complete = false
				}
			}
			if !complete {
				continue
			}
			for _, pi2 := range pi2s {
				v2, err := s.CoreAssign(st2, pi2)
				if err != nil {
					return nil, err
				}
				out = append(out, atpg.TwoPattern{V1: v1, V2: v2})
			}
		}
	default:
		return nil, &StyleError{Style: style}
	}
	return out, nil
}

// shiftState returns the 1-bit launch-on-shift successor of a state:
// scanIn enters at index 0 (the scan-in end) and every bit moves one
// position down the chain.
func shiftState(st State, scanIn logic.Value) State {
	next := make(State, len(st))
	prev := scanIn
	for i := range st {
		next[i] = prev
		prev = st[i]
	}
	return next
}

// StyleCoverage grades every OBD fault of the core against the full pair
// space of one application style: the generation search in its
// exhaustive regime, for spaces of up to maxPairSpaceBits free bits.
func StyleCoverage(s *Circuit, style Style) (atpg.Coverage, error) {
	bits, err := styleBits(s, style)
	if err != nil {
		return atpg.Coverage{}, err
	}
	if bits > maxPairSpaceBits {
		return atpg.Coverage{}, &SpaceLimitError{Mode: style, Bits: bits, Limit: maxPairSpaceBits}
	}
	faults, _ := fault.OBDUniverse(s.Core)
	res, err := search(atpg.DefaultScheduler(), s, faults, style, &Options{ExhaustiveMaxIn: maxPairSpaceBits})
	if err != nil {
		return atpg.Coverage{}, err
	}
	return res.Coverage, nil
}
