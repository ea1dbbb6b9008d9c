package netcheck

// The exact OBD prover, the package's one untestability prover: a
// complete decision procedure in two passes, the classic SAT-based ATPG
// flow. Simulation goes first: a fixed set of seeded random complete
// pairs is graded on the event engine (fault.PairGrader), and a fault's
// first detecting pair is its witness. The faults no pair detects, the
// residue, go to SAT: every excitation pair becomes two instances
// (frame-1 justification, frame-2 excitation + propagation; see
// encode.go), and the CDCL solver decides each one outright. The outcome
// is a total verdict carrying its own evidence —
//
//   - Testable: a concrete two-pattern witness, named by the excitation
//     pair it realizes and replayable through the gross-delay simulation
//     every grader shares (fault.Respond and fault.Detects, which
//     atpg.DetectsOBD also runs);
//   - untestable: one refutation per excitation pair, each either a tied
//     -net pin conflict or a RUP proof the independent sat.Check accepts
//     against a CNF the verifier re-encodes from scratch;
//   - Aborted: the conflict budget ran out on some pair — an honest
//     "undecided", never silently converted to either side.
//
// Simulation only ever finds witnesses, so untestable verdicts and their
// proofs are exactly what SAT alone derives. DFF-bearing circuits are
// decided over their combinational core. VerifyExactVerdict trusts
// nothing from the prover: it rebuilds every CNF deterministically and
// replays witnesses by scalar simulation rather than through any CNF or
// the event engine. Analyze's census, /v1/lint and atpg's Prune and
// SATFallback options all read their verdicts from here.

import (
	"fmt"
	"math/rand"

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

// Reason explains why a fault was proved untestable.
type Reason string

// Untestability reasons.
const (
	ReasonNoExcitation Reason = "no-excitation-pairs"
	ReasonPairsRefuted Reason = "all-pairs-refuted"
)

// ExactWitness is a testability certificate: a concrete two-pattern,
// named by the excitation pair it realizes. V1 and V2 are read-only:
// the witnesses of one ProveOBDExactList call that come from the same
// simulated pair share the same two maps, so writing to one would
// change them all. Copy a map before modifying it.
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

// Untestable reports whether the verdict proves the fault untestable: it
// is neither Testable nor Aborted, since an exhausted budget proves
// nothing.
func (v ExactVerdict) Untestable() bool { return !v.Testable && !v.Aborted }

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

// simPairs is how many seeded random complete pairs the exact prover
// grades before it encodes any CNF, and simSeed seeds them. Both are
// fixed, so a verdict is a function of the circuit and the fault alone.
const (
	simPairs = 1024
	simSeed  = 1
)

// ProveOBDExact decides one fault with no conflict budget: the verdict
// is never Aborted. The circuit must validate.
func ProveOBDExact(c *logic.Circuit, f fault.OBD) ExactVerdict {
	return ProveOBDExactBudget(c, f, 0)
}

// ProveOBDExactBudget is ProveOBDExact under a per-instance conflict
// budget (0 = unlimited); faults whose instances exceed it come back
// Aborted. It is ProveOBDExactList over a list of one, so a verdict does
// not depend on the entry point.
func ProveOBDExactBudget(c *logic.Circuit, f fault.OBD, budget int) ExactVerdict {
	return ProveOBDExactList(c, []fault.OBD{f}, budget)[0]
}

// ProveOBDExactList decides a fault list; the result is index-aligned
// with faults. Simulation goes first: every fault that one of simPairs
// seeded random pairs detects is testable, with the first detecting pair
// as its witness, whose V1/V2 maps it shares with every other witness
// of the call drawn from that pair. Only the faults no pair detects are
// decided by SAT: the good frame is encoded once, at the first of them,
// and every frame instance is solved on one reused solver, with the
// verdicts and proofs a fresh solver per instance would give. A
// DFF-bearing circuit is decided over its combinational core (see
// exactCore). The circuit must validate.
func ProveOBDExactList(c *logic.Circuit, faults []fault.OBD, budget int) []ExactVerdict {
	return proveExactList(c, faults, budget, simPairs)
}

// proveExactList is ProveOBDExactList with the number of simulated pairs
// as a parameter; with none, every fault is decided by SAT.
func proveExactList(c *logic.Circuit, faults []fault.OBD, budget, nsim int) []ExactVerdict {
	out := make([]ExactVerdict, len(faults))
	core, onCore, err := exactCore(c, faults)
	if err != nil {
		// Unreachable for a circuit that validates; decide nothing
		// rather than guess.
		for i, f := range faults {
			out[i] = ExactVerdict{Fault: f.String(), Aborted: true}
		}
		return out
	}
	sim := newSimGrader(core, nsim, nil)
	if len(onCore) > 1 {
		sim.shared = make(map[int][2]map[string]logic.Value)
	}
	var res *residue
	for i, f := range onCore {
		if w := sim.witness(f); w != nil {
			out[i] = ExactVerdict{Fault: f.String(), Testable: true, Witness: w}
			continue
		}
		if res == nil {
			res = newResidue(core.Index(), budget)
		}
		out[i] = res.prove(f)
	}
	return out
}

// exactCore returns the circuit the exact prover decides and the faults
// moved onto it. A circuit without flip-flops is its own. A DFF-bearing
// circuit is decided over its combinational core, as Analyze does: state
// bits become pseudo-inputs and next-state nets pseudo-outputs. Each
// fault moves to the core gate that drives the same net, keeping its pin
// and side, so its name does not change.
func exactCore(c *logic.Circuit, faults []fault.OBD) (*logic.Circuit, []fault.OBD, error) {
	if !c.HasDFF() {
		return c, faults, nil
	}
	core, err := c.CombinationalCore()
	if err != nil {
		return nil, nil, err
	}
	moved := make([]fault.OBD, len(faults))
	for i, f := range faults {
		moved[i] = f
		if g := core.Driver(f.Gate.Output); g != nil {
			moved[i].Gate = g
		}
	}
	return core, moved, nil
}

// simGrader is the simulation pass of the exact prover and of
// Constants: n seeded random complete pairs on one word-built event
// grader.
type simGrader struct {
	c  *logic.Circuit
	pg *fault.PairGrader
	// words holds block b's frame-f word of input i at
	// words[(2*b+f)*len(c.Inputs)+i].
	words []uint64
	// shared holds the V1 and V2 maps of every pair that already named
	// a witness, keyed by pair index, so witnesses naming the same pair
	// share them. Nil when the call has one fault and nothing to share.
	shared map[int][2]map[string]logic.Value
}

// newSimGrader grades n pairs on c. A non-nil frame1 sees every block's
// evaluated frame-1 words, one per net ID, each lane a random complete
// input pattern.
func newSimGrader(c *logic.Circuit, n int, frame1 func(g1 []uint64)) *simGrader {
	x, nin := c.Index(), len(c.Inputs)
	s := &simGrader{c: c, words: make([]uint64, 2*nin*((n+63)/64))}
	rng := rand.New(rand.NewSource(simSeed))
	for i := range s.words {
		s.words[i] = rng.Uint64()
	}
	frame := func(b, f int, g []uint64) {
		w := s.words[(2*b+f)*nin:]
		for i, id := range x.InputIDs {
			g[id] = w[i]
		}
	}
	s.pg = fault.NewPairGraderWords(c, n,
		func(b int, g1 []uint64) { frame(b, 0, g1) },
		func(b int, g1, g2 []uint64) {
			if frame1 != nil {
				frame1(g1)
			}
			frame(b, 1, g2)
		},
		s.pair)
	return s
}

// pair reads pair i's two patterns out of the words.
func (s *simGrader) pair(i int) (v1, v2 map[string]logic.Value) {
	nin, k := len(s.c.Inputs), uint(i%64)
	w := s.words[2*(i/64)*nin:]
	v1, v2 = make(map[string]logic.Value, nin), make(map[string]logic.Value, nin)
	for j, in := range s.c.Inputs {
		v1[in] = logic.FromBool(w[j]>>k&1 == 1)
		v2[in] = logic.FromBool(w[nin+j]>>k&1 == 1)
	}
	return v1, v2
}

// witness returns the first pair that detects f as a witness named by
// the excitation pair it realizes, or nil when no pair detects f. The
// pair's V1 and V2 maps are built once per call (see shared).
func (s *simGrader) witness(f fault.OBD) *ExactWitness {
	i := s.pg.FirstDetecting(f)
	if i < 0 {
		return nil
	}
	p, ok := s.shared[i]
	if !ok {
		p[0], p[1] = s.pair(i)
		if s.shared != nil {
			s.shared[i] = p
		}
	}
	return &ExactWitness{Pair: s.pg.LocalPair(f, i).String(), V1: p[0], V2: p[1]}
}

// residue is the SAT pass of the exact prover and of Constants over one
// circuit's index: the good frame, encoded once, and one reused
// proof-logging solver. Every instance loads as the frame's clauses
// followed by its own tail (the demand units, plus the faulty cone and
// the output difference in frame 2), the same CNF in the same order that
// frameUnits and obdFrame2 build from scratch, so verdicts and proofs
// are those of a fresh solver per instance, and VerifyExactVerdict and
// VerifyConstant re-encode exactly the formula each proof refutes.
type residue struct {
	x     *logic.Index
	frame cnfBuilder // the good frame
	vars  []sat.Lit  // the frame's literal per net ID
	tail  cnfBuilder // the current instance's own clauses
	s     sat.Solver
}

func newResidue(x *logic.Index, budget int) *residue {
	r := &residue{x: x, s: sat.Solver{ProofEnabled: true}}
	if budget > 0 {
		r.s.MaxConflicts = int64(budget)
	}
	r.vars = r.frame.encodeFrame(r.x)
	return r
}

// solve decides the frame plus the current tail.
func (r *residue) solve() sat.Status {
	load(&r.s, r.tail.nv, r.frame.clauses, r.tail.clauses)
	return r.s.Solve()
}

// inputs reads the primary-input assignment out of the last model.
func (r *residue) inputs() map[string]logic.Value {
	out := make(map[string]logic.Value, len(r.x.InputIDs))
	for _, id := range r.x.InputIDs {
		out[r.x.NetNames[id]] = logic.FromBool(r.s.Value(int(r.vars[id])))
	}
	return out
}

// prove decides f pair by pair: each excitation pair becomes two SAT
// instances, frame-2 excitation and propagation, then frame-1
// justification (see encode.go).
func (r *residue) prove(f fault.OBD) ExactVerdict {
	v := ExactVerdict{Fault: f.String()}
	pairs := f.ExcitationPairs()
	if len(pairs) == 0 {
		v.Reason = ReasonNoExcitation
		return v
	}
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
		r.tail.reset(r.frame.nv)
		r.tail.frame2Tail(r.x, r.vars, f, f.Gate.Eval(p.V1), d2)
		st2 := r.solve()
		if st2 == sat.Unsat {
			refs = append(refs, ExactRefutation{Pair: p.String(), Frame: 2, Proof: r.s.Proof()})
			continue
		}
		if st2 == sat.Unknown {
			aborted = true
			continue
		}
		v2 := r.inputs() // before frame 1 reuses the solver
		r.tail.reset(r.frame.nv)
		r.tail.demandUnits(r.x, r.vars, d1)
		st1 := r.solve()
		if st1 == sat.Unsat {
			refs = append(refs, ExactRefutation{Pair: p.String(), Frame: 1, Proof: r.s.Proof()})
			continue
		}
		if st1 == sat.Unknown {
			aborted = true
			continue
		}
		// Both frames satisfiable: the fault is testable, and the two
		// models ARE the two-pattern (the frames are separate instances,
		// so independent solutions compose).
		v.Testable = true
		v.Witness = &ExactWitness{Pair: p.String(), V1: r.inputs(), V2: v2}
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

// VerifyExactVerdict replays an exact verdict's evidence from scratch:
// a testable witness must realize the excitation pair it names and
// detect the fault under an independent simulation, and untestable
// refutations must cover every excitation pair in order, with pin
// conflicts re-derived and every RUP proof accepted by sat.Check against
// a freshly re-encoded CNF. Aborted verdicts claim nothing and verify
// vacuously. A DFF-bearing circuit is checked over its combinational
// core, as the prover decides it. The returned error is always a
// *ExactProofError.
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
	c, onCore, err := exactCore(c, []fault.OBD{f})
	if err != nil {
		return fail("", "combinational core extraction failed", err)
	}
	f = onCore[0]
	if v.Testable {
		w := v.Witness
		if w == nil {
			return fail("", "testable verdict carries no witness", nil)
		}
		// Re-derive the local pair the witness drives onto the site gate.
		g1, g2 := c.Eval(w.V1, nil), c.Eval(w.V2, nil)
		local := fault.Pair{V1: make([]logic.Value, len(f.Gate.Inputs)), V2: make([]logic.Value, len(f.Gate.Inputs))}
		for k, in := range f.Gate.Inputs {
			local.V1[k], local.V2[k] = g1[in], g2[in]
		}
		if local.String() != w.Pair {
			return fail(w.Pair, fmt.Sprintf("witness realizes local pair %s", local), nil)
		}
		excites := false
		for _, p := range f.ExcitationPairs() {
			excites = excites || p.Equal(local)
		}
		if !excites {
			return fail(w.Pair, "witness pair is not an excitation pair of the fault", nil)
		}
		good, faulty, excited := fault.Respond(c, w.V1, w.V2, f)
		if !excited || !fault.Detects(good, faulty, c.Outputs...) {
			return fail(w.Pair, "witness two-pattern does not detect the fault", nil)
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
			b, _ = frameUnits(x, d1)
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
// per-instance conflict budget (0 = DefaultExactBudget), over the
// combinational core when the circuit has flip-flops.
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
