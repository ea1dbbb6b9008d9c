package netcheck

import (
	"fmt"
	"slices"

	"gobd/internal/logic"
)

// This file is the static implication engine: a sound deduction system
// over three-valued net assignments. Values are asserted (assumptions)
// and propagated to a fixpoint through per-gate local consistency: for
// each gate, every complete 0/1 assignment of its distinct input nets
// that agrees with the currently known values is enumerated; if none is
// consistent the assumptions are contradictory, and if all consistent
// assignments agree on some currently unknown net, that value is implied.
// Per-gate enumeration subsumes both forward implication (inputs force
// the output) and backward implication (a forced output pins down
// inputs), and handles tied nets (one net feeding several pins) exactly.
//
// Every derived value carries a proof Step naming the gate and the
// antecedent nets; a contradiction is itself a final Step. The chain is
// machine-checkable: VerifyProof replays it against the circuit and
// re-derives each step from its antecedents alone.
//
// Soundness (the only direction the engine claims): each implied value
// holds in EVERY complete consistent assignment extending the
// assumptions, so a derived contradiction proves no such assignment
// exists. The converse is false by design — a fixpoint without
// contradiction proves nothing (implication closure is incomplete), which
// is why Constants reports a net only when it refutes the opposite value.

// Proof step rules.
const (
	RuleAssume   = "assume"
	RuleImply    = "imply"
	RuleConflict = "conflict"
)

// Step is one link of an implication chain.
type Step struct {
	Rule string      `json:"rule"`
	Net  string      `json:"net,omitempty"`  // net taking a value (assume/imply)
	Val  logic.Value `json:"val,omitempty"`  // the value taken
	Gate string      `json:"gate,omitempty"` // gate whose consistency forced the step
	From []string    `json:"from,omitempty"` // antecedent nets known at the gate
	Note string      `json:"note,omitempty"` // provenance of an assumption
}

// String implements fmt.Stringer.
func (s Step) String() string {
	switch s.Rule {
	case RuleAssume:
		if s.Note != "" {
			return fmt.Sprintf("assume %s=%v (%s)", s.Net, s.Val, s.Note)
		}
		return fmt.Sprintf("assume %s=%v", s.Net, s.Val)
	case RuleImply:
		return fmt.Sprintf("%s=%v by gate %s from %s", s.Net, s.Val, s.Gate, joinComma(s.From))
	default:
		return fmt.Sprintf("contradiction at gate %s given %s", s.Gate, joinComma(s.From))
	}
}

// Proof is an implication chain. A refutation ends in a RuleConflict step.
type Proof []Step

// Refutes reports whether the chain ends in a contradiction.
func (p Proof) Refutes() bool {
	return len(p) > 0 && p[len(p)-1].Rule == RuleConflict
}

// maxEnumNets caps per-gate enumeration (2^n combos). Primitive gates
// have at most three distinct input nets; wider composite gates fall back
// to forward-only evaluation.
const maxEnumNets = 10

// engine is one implication session over a validated circuit.
type engine struct {
	c     *logic.Circuit
	val   map[string]logic.Value
	steps Proof
	// failed latches after the first contradiction; further asserts are
	// no-ops so the proof stays a single chain ending in the conflict.
	failed bool
}

// newEngine starts an empty session. The circuit must validate (the
// engine walks Driver/Fanout, which panic otherwise).
func newEngine(c *logic.Circuit) *engine {
	return &engine{c: c, val: make(map[string]logic.Value)}
}

// Assume asserts net=v and propagates to a fixpoint. It returns false —
// with the contradiction recorded as the final proof step — when the
// assertion is inconsistent with what is already proven.
func (e *engine) Assume(net string, v logic.Value, note string) bool {
	if e.failed {
		return false
	}
	if cur, ok := e.val[net]; ok {
		if cur == v {
			return true // already known; no step needed
		}
		// The assumption clashes with an established value: a conflict
		// "at" the net itself, with the note carrying the provenance.
		e.steps = append(e.steps, Step{
			Rule: RuleConflict, Net: net, Val: v,
			From: []string{net},
			Note: fmt.Sprintf("%s already proven %v, assumption wants %v (%s)", net, cur, v, note),
		})
		e.failed = true
		return false
	}
	e.val[net] = v
	e.steps = append(e.steps, Step{Rule: RuleAssume, Net: net, Val: v, Note: note})
	return e.propagateFrom(net)
}

// Value returns the current value of a net (X when unconstrained).
func (e *engine) Value(net string) logic.Value {
	if v, ok := e.val[net]; ok {
		return v
	}
	return logic.X
}

// Proof returns the step chain so far.
func (e *engine) Proof() Proof { return e.steps }

// propagateFrom runs the gate worklist to a fixpoint starting from the
// gates adjacent to a changed net.
func (e *engine) propagateFrom(net string) bool {
	var queue []*logic.Gate
	queued := make(map[*logic.Gate]bool)
	push := func(g *logic.Gate) {
		if g != nil && !queued[g] {
			queued[g] = true
			queue = append(queue, g)
		}
	}
	touch := func(n string) {
		push(e.c.Driver(n))
		for _, g := range e.c.Fanout(n) {
			push(g)
		}
	}
	touch(net)
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		queued[g] = false
		changed, ok := e.implyGate(g)
		if !ok {
			return false
		}
		for _, n := range changed {
			touch(n)
		}
	}
	return true
}

// distinctInputs returns the gate's input nets with duplicates removed,
// preserving pin order (tied nets appear once). A gate whose inputs are
// already distinct, the common case, gets g.Inputs itself back, so the
// result is read-only. Gates are narrow, so duplicates are found by a
// linear scan rather than a set.
func distinctInputs(g *logic.Gate) []string {
	for i, in := range g.Inputs {
		if !slices.Contains(g.Inputs[:i], in) {
			continue
		}
		out := slices.Clone(g.Inputs[:i])
		for _, in := range g.Inputs[i+1:] {
			if !slices.Contains(out, in) {
				out = append(out, in)
			}
		}
		return out
	}
	return g.Inputs
}

// implyGate runs local consistency on one gate. It returns the nets whose
// values were newly implied, and ok=false on contradiction.
func (e *engine) implyGate(g *logic.Gate) (changed []string, ok bool) {
	nets := distinctInputs(g)
	outKnown := e.Value(g.Output)

	if len(nets) > maxEnumNets {
		// Forward-only fallback for very wide gates.
		pins := make([]logic.Value, len(g.Inputs))
		for i, in := range g.Inputs {
			pins[i] = e.Value(in)
		}
		out := g.Eval(pins)
		if !out.IsKnown() {
			return nil, true
		}
		if outKnown == logic.X {
			return e.record(g, nets, g.Output, out), true
		}
		if outKnown != out {
			e.conflict(g, nets)
			return nil, false
		}
		return nil, true
	}

	// Enumerate complete 0/1 assignments of the distinct input nets that
	// agree with the known values; collect the feasible images of every
	// net at the gate.
	feasible := make([]logic.Value, len(nets)+1) // per net: 0, 1 or X (=both seen); last slot is the output
	for i := range feasible {
		feasible[i] = logic.Value(0xff) // sentinel: nothing seen yet
	}
	pins := make([]logic.Value, len(g.Inputs))
	any := false
	for m := 0; m < 1<<len(nets); m++ {
		consistent := true
		for i, n := range nets {
			v := logic.FromBool(m&(1<<i) != 0)
			if k := e.Value(n); k.IsKnown() && k != v {
				consistent = false
				break
			}
		}
		if !consistent {
			continue
		}
		for pi, in := range g.Inputs {
			for i, n := range nets {
				if n == in {
					pins[pi] = logic.FromBool(m&(1<<i) != 0)
				}
			}
		}
		out := g.Eval(pins)
		if outKnown.IsKnown() && out != outKnown {
			continue
		}
		any = true
		for i := range nets {
			merge(&feasible[i], logic.FromBool(m&(1<<i) != 0))
		}
		merge(&feasible[len(nets)], out)
	}
	if !any {
		e.conflict(g, nets)
		return nil, false
	}
	for i, n := range nets {
		if v := feasible[i]; v.IsKnown() && e.Value(n) == logic.X {
			changed = append(changed, e.record(g, nets, n, v)...)
		}
	}
	if v := feasible[len(nets)]; v.IsKnown() && outKnown == logic.X {
		changed = append(changed, e.record(g, nets, g.Output, v)...)
	}
	return changed, true
}

// merge folds one observed value into a feasibility slot: first value
// sticks, a differing second value degrades to X.
func merge(slot *logic.Value, v logic.Value) {
	if *slot == logic.Value(0xff) {
		*slot = v
	} else if *slot != v {
		*slot = logic.X
	}
}

// record commits an implied value with its proof step.
func (e *engine) record(g *logic.Gate, nets []string, net string, v logic.Value) []string {
	e.val[net] = v
	e.steps = append(e.steps, Step{
		Rule: RuleImply, Net: net, Val: v, Gate: g.Name, From: e.knownAt(g, nets, net),
	})
	return []string{net}
}

// conflict records the terminal contradiction step.
func (e *engine) conflict(g *logic.Gate, nets []string) {
	e.steps = append(e.steps, Step{
		Rule: RuleConflict, Gate: g.Name, From: e.knownAt(g, nets, ""),
	})
	e.failed = true
}

// knownAt lists the nets of the gate (inputs + output) currently holding
// known values, excluding the net just being implied.
func (e *engine) knownAt(g *logic.Gate, nets []string, except string) []string {
	var from []string
	for _, n := range nets {
		if n != except && e.Value(n).IsKnown() {
			from = append(from, n)
		}
	}
	if g.Output != except && e.Value(g.Output).IsKnown() {
		from = append(from, g.Output)
	}
	return from
}

// Constant is a net proved to hold one value under every primary-input
// assignment, with the refutation of the opposite value as proof.
type Constant struct {
	Net   string      `json:"net"`
	Val   logic.Value `json:"val"`
	Proof Proof       `json:"proof"`
}

// Constants finds structurally constant nets: for each gate output, both
// values are tried under implication closure; if one refutes, the net is
// proved constant at the other. This is the static image of constant
// propagation from tied and reconvergent nets (e.g. NAND(x, !x) ≡ 1).
// Primary inputs are free variables and never constant. The circuit must
// validate.
func Constants(c *logic.Circuit) []Constant {
	var out []Constant
	for _, g := range c.Ordered() {
		for _, v := range []logic.Value{logic.Zero, logic.One} {
			e := newEngine(c)
			if !e.Assume(g.Output, v, "constant probe") {
				out = append(out, Constant{Net: g.Output, Val: v.Not(), Proof: e.Proof()})
				break
			}
		}
	}
	return out
}

// ProofError is a typed replay failure from VerifyProof: the proof does
// not establish what it claims. Step indexes the first offending step.
type ProofError struct {
	Step int
	Msg  string
}

func (e *ProofError) Error() string { return "netcheck: " + e.Msg }

// VerifyProof independently replays an implication chain: every assume
// must be fresh, every imply must be re-derivable from the values
// established by the preceding steps alone, and a conflict step must
// correspond to a gate with no locally consistent assignment. It returns
// an error naming the first step that does not check.
func VerifyProof(c *logic.Circuit, p Proof) error {
	val := make(map[string]logic.Value)
	value := func(n string) logic.Value {
		if v, ok := val[n]; ok {
			return v
		}
		return logic.X
	}
	gates := make(map[string]*logic.Gate, len(c.Gates))
	for _, g := range c.Gates {
		gates[g.Name] = g
	}
	// feasibleAt re-runs the local enumeration of implyGate using only
	// the replayed values.
	feasibleAt := func(g *logic.Gate) (perNet map[string]logic.Value, any bool) {
		nets := distinctInputs(g)
		if len(nets) > maxEnumNets {
			return nil, true
		}
		perNet = make(map[string]logic.Value)
		sentinel := logic.Value(0xff)
		acc := make([]logic.Value, len(nets)+1)
		for i := range acc {
			acc[i] = sentinel
		}
		pins := make([]logic.Value, len(g.Inputs))
		outKnown := value(g.Output)
		for m := 0; m < 1<<len(nets); m++ {
			ok := true
			for i, n := range nets {
				v := logic.FromBool(m&(1<<i) != 0)
				if k := value(n); k.IsKnown() && k != v {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for pi, in := range g.Inputs {
				for i, n := range nets {
					if n == in {
						pins[pi] = logic.FromBool(m&(1<<i) != 0)
					}
				}
			}
			out := g.Eval(pins)
			if outKnown.IsKnown() && out != outKnown {
				continue
			}
			any = true
			for i := range nets {
				merge(&acc[i], logic.FromBool(m&(1<<i) != 0))
			}
			merge(&acc[len(nets)], out)
		}
		for i, n := range nets {
			perNet[n] = acc[i]
		}
		perNet[g.Output] = acc[len(nets)]
		return perNet, any
	}
	for i, s := range p {
		switch s.Rule {
		case RuleAssume:
			if v, ok := val[s.Net]; ok && v != s.Val {
				return &ProofError{Step: i, Msg: fmt.Sprintf("step %d assumes %s=%v over established %v without a conflict step", i, s.Net, s.Val, v)}
			}
			val[s.Net] = s.Val
		case RuleImply:
			g, ok := gates[s.Gate]
			if !ok {
				return &ProofError{Step: i, Msg: fmt.Sprintf("step %d implies via unknown gate %q", i, s.Gate)}
			}
			perNet, any := feasibleAt(g)
			if !any {
				return &ProofError{Step: i, Msg: fmt.Sprintf("step %d implies at gate %s which is already contradictory", i, s.Gate)}
			}
			forced, touched := perNet[s.Net]
			if !touched || !forced.IsKnown() || forced != s.Val {
				return &ProofError{Step: i, Msg: fmt.Sprintf("step %d claims %s=%v forced by gate %s, but it is not", i, s.Net, s.Val, s.Gate)}
			}
			val[s.Net] = s.Val
		case RuleConflict:
			if i != len(p)-1 {
				return &ProofError{Step: i, Msg: fmt.Sprintf("conflict step %d is not terminal", i)}
			}
			if s.Gate == "" {
				// Assumption clash: the conflicting value must already be set.
				v, ok := val[s.Net]
				if !ok || v == s.Val {
					return &ProofError{Step: i, Msg: fmt.Sprintf("step %d claims an assumption clash on %s that does not exist", i, s.Net)}
				}
				return nil
			}
			g, ok := gates[s.Gate]
			if !ok {
				return &ProofError{Step: i, Msg: fmt.Sprintf("conflict step %d names unknown gate %q", i, s.Gate)}
			}
			if _, any := feasibleAt(g); any {
				return &ProofError{Step: i, Msg: fmt.Sprintf("conflict step %d at gate %s is not a real contradiction", i, s.Gate)}
			}
			return nil
		default:
			return &ProofError{Step: i, Msg: fmt.Sprintf("step %d has unknown rule %q", i, s.Rule)}
		}
	}
	return nil
}
