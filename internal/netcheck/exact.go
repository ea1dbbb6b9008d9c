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

// Prover is the exact prover over one circuit, built once and asked
// fault by fault (Prove) or net by net (constants). It holds both passes:
// the simPairs seeded pairs on one word-built event grader, with the
// values every net took on their frame 1, and one reused proof-logging
// solver. Every instance simulation leaves open is encoded over the
// fanin closure of the nets it constrains only (coneCNF, encode.go), in
// the per-net scratch every instance reuses, and loaded into the solver
// after a Reset. frameUnits and obdFrame2 are the one encoder, so an
// answer does not depend on what the prover answered before: verdicts
// and proofs are those of a fresh solver per instance, and
// VerifyExactVerdict and VerifyConstant re-encode exactly the formula
// each proof refutes. A DFF-bearing circuit is decided over its
// combinational core (see exactCore). A Prover is not safe for
// concurrent use.
type Prover struct {
	c   *logic.Circuit // the circuit decided; nil when it has no core
	seq bool           // the circuit given has flip-flops, so faults move onto c
	x   *logic.Index

	pg *fault.PairGrader
	// words holds block b's frame-f word of input i at
	// words[(2*b+f)*len(c.Inputs)+i].
	words []uint64
	// seen[id] has bit v set once net id took value v on frame 1.
	seen []uint8
	// shared holds the V1 and V2 maps of every pair that already named
	// a witness, keyed by pair index, so witnesses naming the same pair
	// share them.
	shared map[int][2]map[string]logic.Value

	enc    *coneCNF // every instance's encoder, with its per-net scratch
	s      sat.Solver
	loaded loadStats
}

// loadStats counts the instances a prover loaded into its solver and
// their variables and clauses, summed over instances.
type loadStats struct{ instances, vars, clauses int }

// NewProver grades the seeded pairs on c under a per-instance conflict
// budget (0 = unlimited); instances that exceed it come back Aborted.
// The circuit must validate. NewProver never calls Validate, and once
// c.Index() has been built it only reads c, so provers over one circuit
// may then be built on several goroutines at once.
func NewProver(c *logic.Circuit, budget int) *Prover {
	p := &Prover{s: sat.Solver{ProofEnabled: true}, shared: make(map[int][2]map[string]logic.Value)}
	if budget > 0 {
		p.s.MaxConflicts = int64(budget)
	}
	core, err := exactCore(c)
	if err != nil {
		return p // unreachable for a circuit that validates; p decides nothing
	}
	p.c, p.seq, p.x = core, core != c, core.Index()
	p.enc = newConeCNF(p.x)
	nin := len(core.Inputs)
	p.words = make([]uint64, 2*nin*((simPairs+63)/64))
	rng := rand.New(rand.NewSource(simSeed))
	for i := range p.words {
		p.words[i] = rng.Uint64()
	}
	p.seen = make([]uint8, p.x.NumNets())
	frame := func(b, f int, g []uint64) {
		w := p.words[(2*b+f)*nin:]
		for i, id := range p.x.InputIDs {
			g[id] = w[i]
		}
	}
	p.pg = fault.NewPairGraderWords(core, simPairs,
		func(b int, g1 []uint64) { frame(b, 0, g1) },
		func(b int, g1, g2 []uint64) {
			for id, w := range g1 {
				if w != 0 {
					p.seen[id] |= 2
				}
				if w != ^uint64(0) {
					p.seen[id] |= 1
				}
			}
			frame(b, 1, g2)
		},
		p.pair)
	return p
}

// ProveOBDExact decides one fault with no conflict budget: the verdict
// is never Aborted. The circuit must validate.
func ProveOBDExact(c *logic.Circuit, f fault.OBD) ExactVerdict {
	return NewProver(c, 0).Prove(f)
}

// ProveOBDExactList decides a fault list on one Prover under a
// per-instance conflict budget (0 = unlimited); the result is
// index-aligned with faults. Witnesses drawn from the same simulated pair
// share their V1/V2 maps. The circuit must validate.
func ProveOBDExactList(c *logic.Circuit, faults []fault.OBD, budget int) []ExactVerdict {
	return NewProver(c, budget).census(faults).Verdicts
}

// exactCore returns the circuit the exact prover decides: c itself
// without flip-flops, else its combinational core, as Analyze uses,
// where state bits are pseudo-inputs and next-state nets pseudo-outputs.
func exactCore(c *logic.Circuit) (*logic.Circuit, error) {
	if !c.HasDFF() {
		return c, nil
	}
	return c.CombinationalCore()
}

// onCore moves a fault of a DFF-bearing circuit to the core gate that
// drives the same net, keeping its pin and side, so its name does not
// change.
func onCore(core *logic.Circuit, f fault.OBD) fault.OBD {
	if g := core.Driver(f.Gate.Output); g != nil {
		f.Gate = g
	}
	return f
}

// pair reads pair i's two patterns out of the words.
func (p *Prover) pair(i int) (v1, v2 map[string]logic.Value) {
	nin, k := len(p.c.Inputs), uint(i%64)
	w := p.words[2*(i/64)*nin:]
	v1, v2 = make(map[string]logic.Value, nin), make(map[string]logic.Value, nin)
	for j, in := range p.c.Inputs {
		v1[in] = logic.FromBool(w[j]>>k&1 == 1)
		v2[in] = logic.FromBool(w[nin+j]>>k&1 == 1)
	}
	return v1, v2
}

// witness returns the first pair that detects f as a witness named by
// the excitation pair it realizes, or nil when no pair detects f. The
// pair's V1 and V2 maps are built once per prover (see shared).
func (p *Prover) witness(f fault.OBD) *ExactWitness {
	i := p.pg.FirstDetecting(f)
	if i < 0 {
		return nil
	}
	w, ok := p.shared[i]
	if !ok {
		w[0], w[1] = p.pair(i)
		p.shared[i] = w
	}
	return &ExactWitness{Pair: p.pg.LocalPair(f, i).String(), V1: w[0], V2: w[1]}
}

// solve loads the instance the encoder holds and decides it.
func (p *Prover) solve() sat.Status {
	p.enc.load(&p.s)
	p.loaded.instances++
	p.loaded.vars += p.enc.nv
	p.loaded.clauses += len(p.enc.clauses)
	return p.s.Solve()
}

// inputs reads the primary-input assignment out of the last model: the
// model's value on each input of the instance's closure, and 0 on every
// other input, which the instance leaves free.
func (p *Prover) inputs() map[string]logic.Value {
	out := make(map[string]logic.Value, len(p.x.InputIDs))
	for _, id := range p.x.InputIDs {
		lit := p.enc.good[id]
		out[p.x.NetNames[id]] = logic.FromBool(lit != 0 && p.s.Value(int(lit)))
	}
	return out
}

// Prove decides one fault. Simulation goes first: a fault one of the
// seeded pairs detects is testable, with the first detecting pair as its
// witness. Otherwise each excitation pair becomes two SAT instances,
// frame-2 excitation and propagation, then frame-1 justification (see
// encode.go).
func (p *Prover) Prove(f fault.OBD) ExactVerdict {
	v := ExactVerdict{Fault: f.String()}
	if p.c == nil {
		v.Aborted = true
		return v
	}
	if p.seq {
		f = onCore(p.c, f)
	}
	if w := p.witness(f); w != nil {
		v.Testable, v.Witness = true, w
		return v
	}
	pairs := f.ExcitationPairs()
	if len(pairs) == 0 {
		v.Reason = ReasonNoExcitation
		return v
	}
	refs := make([]ExactRefutation, 0, len(pairs))
	aborted := false
	for _, pr := range pairs {
		d2, conf2 := demandByNet(f.Gate, pr.V2)
		if conf2 {
			refs = append(refs, ExactRefutation{Pair: pr.String(), Frame: 2, PinConflict: true})
			continue
		}
		d1, conf1 := demandByNet(f.Gate, pr.V1)
		if conf1 {
			refs = append(refs, ExactRefutation{Pair: pr.String(), Frame: 1, PinConflict: true})
			continue
		}
		p.enc.obdFrame2(f, f.Gate.Eval(pr.V1), d2)
		st2 := p.solve()
		if st2 == sat.Unsat {
			refs = append(refs, ExactRefutation{Pair: pr.String(), Frame: 2, Proof: p.s.Proof()})
			continue
		}
		if st2 == sat.Unknown {
			aborted = true
			continue
		}
		v2 := p.inputs() // before frame 1 reuses the solver
		p.enc.frameUnits(d1)
		st1 := p.solve()
		if st1 == sat.Unsat {
			refs = append(refs, ExactRefutation{Pair: pr.String(), Frame: 1, Proof: p.s.Proof()})
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
		v.Witness = &ExactWitness{Pair: pr.String(), V1: p.inputs(), V2: v2}
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
	core, err := exactCore(c)
	if err != nil {
		return fail("", "combinational core extraction failed", err)
	}
	if core != c {
		c, f = core, onCore(core, f)
	}
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
	e := newConeCNF(c.Index())
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
		switch ref.Frame {
		case 2:
			e.obdFrame2(f, f.Gate.Eval(p.V1), d2)
		case 1:
			e.frameUnits(d1)
		default:
			return fail(p.String(), fmt.Sprintf("refutation names frame %d", ref.Frame), nil)
		}
		if err := sat.Check(e.nv, e.clauses, ref.Proof); err != nil {
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

// ExactAnalyze decides the circuit's full OBD universe on one Prover
// under the given per-instance conflict budget (0 = DefaultExactBudget),
// over the combinational core when the circuit has flip-flops.
func ExactAnalyze(c *logic.Circuit, budget int) *ExactReport {
	if budget == 0 {
		budget = DefaultExactBudget
	}
	faults, _ := fault.OBDUniverse(c)
	return NewProver(c, budget).census(faults)
}

// census decides faults and counts the three outcomes.
func (p *Prover) census(faults []fault.OBD) *ExactReport {
	r := &ExactReport{Faults: len(faults), Verdicts: make([]ExactVerdict, len(faults))}
	for i, f := range faults {
		v := p.Prove(f)
		r.Verdicts[i] = v
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
