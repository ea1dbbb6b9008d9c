package netcheck

// This file is the bridge between circuits and the CDCL solver: a
// Tseitin encoder over the dense logic.Index, plus the miter
// constructions the exact prover (exact.go) solves —
//
//   - a whole-circuit copy (encodeFrame), one Boolean variable per net,
//     gate semantics as biconditional clauses, for the CEC and
//     fault-equivalence miters;
//   - the exact prover's instances (coneCNF), each encoded over the
//     fanin closure of its seed nets only: frame 1 justifies an
//     excitation pair's V1 local values, frame 2 justifies V2 and
//     propagates the forced-value fault effect (site held at its
//     frame-1 value) to some primary-output difference, and a constant
//     probe holds one net at one value;
//   - a CEC miter for circuit-vs-circuit equivalence (shared inputs by
//     name, XOR difference over matched outputs);
//   - a detection-predicate encoding (encodeDetect) mirroring
//     atpg.DetectsOBD exactly, used to certify fault-collapsing classes.
//
// Everything here is deterministic: variables are handed out in net-ID
// order and clauses in gate order, so the prover and the independent
// verifier rebuild bit-identical CNFs from the same circuit.

import (
	"slices"

	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/sat"
)

// cnfBuilder accumulates a CNF over fresh variables. The same builder
// code produces the instance for the solver and for the proof checker,
// which is what makes stored RUP proofs replayable from scratch.
type cnfBuilder struct {
	nv      int
	clauses [][]sat.Lit
	arena   []sat.Lit // every clause's literals, back to back
	long    []sat.Lit // encodeGate's wide-clause buffer
}

func (b *cnfBuilder) newVar() sat.Lit {
	b.nv++
	return sat.Lit(b.nv)
}

// add appends a clause. Its literals go to the end of the arena, and the
// clause is the capacity-clipped subslice holding them, so one growing
// array backs every clause. When the arena grows, the clauses already
// added keep the old array, whose contents never change until reset.
func (b *cnfBuilder) add(lits ...sat.Lit) {
	start := len(b.arena)
	b.arena = append(b.arena, lits...)
	b.clauses = append(b.clauses, b.arena[start:len(b.arena):len(b.arena)])
}

// reset empties the builder, keeping its storage. The clauses added
// before reset are overwritten by the next ones.
func (b *cnfBuilder) reset() {
	b.nv = 0
	b.clauses = b.clauses[:0]
	b.arena = b.arena[:0]
}

// run feeds the CNF into a fresh proof-logging solver and solves it.
// budget caps the conflicts (0 = unlimited).
func (b *cnfBuilder) run(budget int) (*sat.Solver, sat.Status) {
	s := &sat.Solver{ProofEnabled: true}
	if budget > 0 {
		s.MaxConflicts = int64(budget)
	}
	b.load(s)
	return s, s.Solve()
}

// load resets s and feeds it the CNF: every variable first, then the
// clauses in order.
func (b *cnfBuilder) load(s *sat.Solver) {
	s.Reset()
	for s.NumVars() < b.nv {
		s.NewVar()
	}
	for _, cl := range b.clauses {
		s.AddClause(cl...)
	}
}

// encodeGate emits the Tseitin biconditional out ↔ t(ins).
func (b *cnfBuilder) encodeGate(t logic.GateType, out sat.Lit, ins []sat.Lit) {
	switch t {
	case logic.Buf:
		b.add(-out, ins[0])
		b.add(out, -ins[0])
	case logic.Inv:
		b.add(-out, -ins[0])
		b.add(out, ins[0])
	case logic.And:
		long := b.long[:0]
		for _, a := range ins {
			b.add(-out, a)
			long = append(long, -a)
		}
		b.long = append(long, out)
		b.add(b.long...)
	case logic.Nand:
		long := b.long[:0]
		for _, a := range ins {
			b.add(out, a)
			long = append(long, -a)
		}
		b.long = append(long, -out)
		b.add(b.long...)
	case logic.Or:
		long := b.long[:0]
		for _, a := range ins {
			b.add(out, -a)
			long = append(long, a)
		}
		b.long = append(long, -out)
		b.add(b.long...)
	case logic.Nor:
		long := b.long[:0]
		for _, a := range ins {
			b.add(-out, -a)
			long = append(long, a)
		}
		b.long = append(long, out)
		b.add(b.long...)
	case logic.Xor:
		b.xorEquiv(out, ins[0], ins[1])
	case logic.Xnor:
		b.xorEquiv(-out, ins[0], ins[1])
	case logic.Aoi21:
		t1 := b.newVar()
		b.encodeGate(logic.And, t1, ins[:2])
		b.encodeGate(logic.Nor, out, []sat.Lit{t1, ins[2]})
	case logic.Oai21:
		t1 := b.newVar()
		b.encodeGate(logic.Or, t1, ins[:2])
		b.encodeGate(logic.Nand, out, []sat.Lit{t1, ins[2]})
	case logic.Dff:
		// A flip-flop has no combinational biconditional. Unreachable:
		// Analyze and the atpg scheduler route DFF-bearing circuits
		// through CombinationalCore before any CNF is built.
		//obdcheck:allow paniccontract — encoder precondition: callers encode combinational cores only (Analyze extracts the core first)
		panic("netcheck: encodeGate reached a DFF; encode the combinational core instead")
	}
}

// xorEquiv emits d ↔ (a ⊕ b).
func (b *cnfBuilder) xorEquiv(d, a, bb sat.Lit) {
	b.add(-d, a, bb)
	b.add(-d, -a, -bb)
	b.add(d, -a, bb)
	b.add(d, a, -bb)
}

// equiv emits a ↔ b.
func (b *cnfBuilder) equiv(a, bb sat.Lit) {
	b.add(-a, bb)
	b.add(a, -bb)
}

// encodeFrame allocates one variable per net (in dense-ID order) and
// emits every gate's clauses; vars[id] is the net's positive literal.
func (b *cnfBuilder) encodeFrame(x *logic.Index) []sat.Lit {
	return b.encodeFrameShared(x, nil)
}

// encodeFrameShared is encodeFrame with some nets pre-bound to existing
// variables (pre[id] != 0), which is how the CEC miter shares primary
// inputs between the two circuits.
func (b *cnfBuilder) encodeFrameShared(x *logic.Index, pre []sat.Lit) []sat.Lit {
	vars := make([]sat.Lit, x.NumNets())
	for id := range vars {
		if pre != nil && pre[id] != 0 {
			vars[id] = pre[id]
		} else {
			vars[id] = b.newVar()
		}
	}
	for gi, g := range x.Gates {
		ins := make([]sat.Lit, len(x.GateIn[gi]))
		for k, id := range x.GateIn[gi] {
			ins[k] = vars[id]
		}
		b.encodeGate(g.Type, vars[x.GateOut[gi]], ins)
	}
	return vars
}

// coneCNF encodes the exact prover's instances, each over the fanin
// closure of its seed nets: the seeds, the nets driving their gates, and
// so on back to the primary inputs. Frame 2 seeds the site's fanout cone,
// whose closure holds the site gate's inputs, the nets the pair's V2
// demands; frame 1 seeds the nets V1 demands, and a constant probe its
// net. Closure nets get variables in ascending net-ID order and closure
// gates emit their clauses in gate order; the instance's own clauses
// follow. The prover and both verifiers build every instance here, so a
// proof is checked against the very CNF it refutes.
//
// The closure is fanin-closed, so an instance is satisfiable exactly
// when the same instance over the whole circuit is: a whole-circuit model
// restricted to the closure satisfies it, and a closure model extends to
// the whole circuit by setting every other primary input (to 0, as SAT
// witnesses do) and evaluating, which leaves every closure net's value as
// it was. The per-net scratch is sized to the circuit once and cleared
// net by net, so a warm coneCNF encodes an instance without allocating,
// in time proportional to the instance.
type coneCNF struct {
	cnfBuilder
	x      *logic.Index
	driver []int32   // driving gate position by net ID; -1 for primary inputs
	poRank []int32   // first position in OutputIDs by net ID; -1 off the outputs
	good   []sat.Lit // literal by net ID; 0 outside the closure
	faulty []sat.Lit // faulty-copy literal by net ID; 0 outside the cone
	nets   []int32   // the closure, ascending once encoded
	cone   []int32   // the site's fanout cone, ascending
	gates  []int32   // gate positions, scratch
	ins    []sat.Lit // one gate's input literals, scratch
}

// pending marks a net listed in the closure or the cone before it has a
// variable.
const pending sat.Lit = 1

func newConeCNF(x *logic.Index) *coneCNF {
	n := x.NumNets()
	e := &coneCNF{x: x, driver: make([]int32, n), poRank: make([]int32, n),
		good: make([]sat.Lit, n), faulty: make([]sat.Lit, n)}
	for id := range e.driver {
		e.driver[id], e.poRank[id] = -1, -1
	}
	for gi, out := range x.GateOut {
		e.driver[out] = int32(gi)
	}
	for i, id := range x.OutputIDs {
		if e.poRank[id] < 0 {
			e.poRank[id] = int32(i)
		}
	}
	return e
}

// begin empties the instance: the builder, and the previous closure's
// literals.
func (e *coneCNF) begin() {
	for _, id := range e.nets {
		e.good[id] = 0
	}
	e.nets = e.nets[:0]
	e.reset()
}

// seed adds net id to the closure.
func (e *coneCNF) seed(id int32) {
	if e.good[id] == 0 {
		e.good[id] = pending
		e.nets = append(e.nets, id)
	}
}

// encodeClosure completes the closure of the seeds, gives its nets
// variables in ascending net-ID order and emits its gates in gate order.
func (e *coneCNF) encodeClosure() {
	x := e.x
	for i := 0; i < len(e.nets); i++ { // e.nets grows as the walk goes
		if gi := e.driver[e.nets[i]]; gi >= 0 {
			for _, in := range x.GateIn[gi] {
				e.seed(in)
			}
		}
	}
	slices.Sort(e.nets)
	e.gates = e.gates[:0]
	for _, id := range e.nets {
		e.good[id] = e.newVar()
		if gi := e.driver[id]; gi >= 0 {
			e.gates = append(e.gates, gi)
		}
	}
	slices.Sort(e.gates)
	for _, gi := range e.gates {
		ins := e.ins[:0]
		for _, id := range x.GateIn[gi] {
			ins = append(ins, e.good[id])
		}
		e.ins = ins
		e.encodeGate(x.Gates[gi].Type, e.good[x.GateOut[gi]], ins)
	}
}

// frameUnits builds one frame over the closure of the demanded nets plus
// each demanded value as a unit clause: the frame-1 justification
// instance of an excitation pair (its V1 values on the site gate's
// distinct input nets), and the probe that refutes a constant net's
// other value.
func (e *coneCNF) frameUnits(demands []sideVal) {
	e.begin()
	for _, d := range demands {
		e.seed(int32(e.x.NetIDs[d.net]))
	}
	e.encodeClosure()
	e.demandUnits(e.x, e.good, demands)
}

// obdFrame2 builds the frame-2 excitation-and-propagation instance over
// the closure of the site's fanout cone: the good copy constrained to
// the pair's V2 local values, a faulty cone copy with the site forced to
// its frame-1 good value o1 (the paper's gross-delay forced-value fault
// model), and a primary-output difference between the copies.
func (e *coneCNF) obdFrame2(f fault.OBD, o1 logic.Value, demands []sideVal) {
	e.begin()
	site := int32(e.x.NetIDs[f.Gate.Output])
	e.fanoutCone(site)
	for _, id := range e.cone {
		e.seed(id)
	}
	e.encodeClosure()
	e.demandUnits(e.x, e.good, demands)
	siteVar := e.newVar()
	if o1 == logic.One {
		e.add(siteVar)
	} else {
		e.add(-siteVar)
	}
	e.faultyCone(site, e.good, siteVar)
	ds := e.long[:0]
	for _, id := range e.conePOs() {
		// d → (good ⊕ faulty): one-directional indicators suffice for a
		// satisfiability miter. With no PO in the cone the clause of the
		// ds is empty: the fault effect is trivially unobservable.
		d := e.newVar()
		e.add(-d, e.good[id], e.faulty[id])
		e.add(-d, -e.good[id], -e.faulty[id])
		ds = append(ds, d)
	}
	e.long = ds
	e.add(ds...)
}

// fanoutCone lists the transitive fanout cone of site, the site
// included, in ascending net-ID order, marking each cone net in faulty.
// It first clears the previous cone's marks and literals.
func (e *coneCNF) fanoutCone(site int32) {
	x := e.x
	for _, id := range e.cone {
		e.faulty[id] = 0
	}
	e.cone = append(e.cone[:0], site)
	e.faulty[site] = pending
	for i := 0; i < len(e.cone); i++ { // e.cone grows as the walk goes
		for _, gi := range x.Fanouts[e.cone[i]] {
			if out := x.GateOut[gi]; e.faulty[out] == 0 {
				e.faulty[out] = pending
				e.cone = append(e.cone, out)
			}
		}
	}
	slices.Sort(e.cone)
}

// faultyCone duplicates the fanout cone listed by fanoutCone over fresh
// variables, in ascending net-ID order, with the site bound to siteVar;
// cone gates read the faulty literal of cone nets and good[id] of every
// other net. The site's own fresh variable goes unused, which keeps the
// numbering of the encoding from before cone-sized instances.
func (e *coneCNF) faultyCone(site int32, good []sat.Lit, siteVar sat.Lit) {
	x := e.x
	e.gates = e.gates[:0]
	for _, id := range e.cone {
		e.faulty[id] = e.newVar()
		if id != site {
			e.gates = append(e.gates, e.driver[id])
		}
	}
	e.faulty[site] = siteVar
	slices.Sort(e.gates)
	for _, gi := range e.gates {
		ins := e.ins[:0]
		for _, id := range x.GateIn[gi] {
			if e.faulty[id] != 0 {
				ins = append(ins, e.faulty[id])
			} else {
				ins = append(ins, good[id])
			}
		}
		e.ins = ins
		e.encodeGate(x.Gates[gi].Type, e.faulty[x.GateOut[gi]], ins)
	}
}

// conePOs returns the distinct primary-output nets of the cone in
// OutputIDs order. It reuses e.gates, so it must follow faultyCone.
func (e *coneCNF) conePOs() []int32 {
	ranks := e.gates[:0]
	for _, id := range e.cone {
		if r := e.poRank[id]; r >= 0 {
			ranks = append(ranks, r)
		}
	}
	slices.Sort(ranks)
	for i, r := range ranks {
		ranks[i] = e.x.OutputIDs[r]
	}
	e.gates = ranks
	return ranks
}

// sideVal is one value an excitation pair demands of a net.
type sideVal struct {
	net string
	val logic.Value
}

// demandByNet folds per-pin values onto the gate's distinct input nets;
// conflict is true when a tied net is asked for both values.
func demandByNet(g *logic.Gate, pins []logic.Value) (out []sideVal, conflict bool) {
	idx := make(map[string]int)
	for pi, in := range g.Inputs {
		v := pins[pi]
		if !v.IsKnown() {
			continue
		}
		if j, ok := idx[in]; ok {
			if out[j].val != v {
				return nil, true
			}
			continue
		}
		idx[in] = len(out)
		out = append(out, sideVal{net: in, val: v})
	}
	return out, false
}

// demandUnits asserts folded local net values as unit clauses.
func (b *cnfBuilder) demandUnits(x *logic.Index, vars []sat.Lit, demands []sideVal) {
	for _, d := range demands {
		b.add(litOf(x, vars, d))
	}
}

// litOf returns the literal asserting the demanded value of a net.
func litOf(x *logic.Index, vars []sat.Lit, d sideVal) sat.Lit {
	lit := vars[x.NetIDs[d.net]]
	if d.val == logic.Zero {
		return -lit
	}
	return lit
}

// encodeDetect returns a literal equivalent to "the complete two-pattern
// (frame 1 = v1 copy, frame 2 = v2 copy) detects f" under exactly the
// atpg.DetectsOBD semantics: the site gate's local input pair matches
// some excitation pair, and the faulty frame-2 copy (site held at its
// frame-1 value) differs from the good copy at a primary output.
func (e *coneCNF) encodeDetect(f fault.OBD, v1, v2 []sat.Lit) sat.Lit {
	x := e.x
	d := e.newVar()
	var sels []sat.Lit
	for _, p := range f.ExcitationPairs() {
		d2, c2 := demandByNet(f.Gate, p.V2)
		d1, c1 := demandByNet(f.Gate, p.V1)
		if c1 || c2 {
			continue // tied-net conflict: the pair matches no real assignment
		}
		sel := e.newVar()
		neg := make([]sat.Lit, 0, len(d1)+len(d2)+1)
		for _, dm := range d1 {
			l := litOf(x, v1, dm)
			e.add(-sel, l)
			neg = append(neg, -l)
		}
		for _, dm := range d2 {
			l := litOf(x, v2, dm)
			e.add(-sel, l)
			neg = append(neg, -l)
		}
		e.add(append(neg, sel)...)
		sels = append(sels, sel)
	}
	if len(sels) == 0 {
		e.add(-d)
		return d
	}
	exc := e.newVar()
	long := make([]sat.Lit, 0, len(sels)+1)
	for _, s := range sels {
		e.add(-s, exc)
		long = append(long, s)
	}
	e.add(append(long, -exc)...)

	siteID := int32(x.NetIDs[f.Gate.Output])
	e.fanoutCone(siteID)
	siteVar := e.newVar()
	e.equiv(siteVar, v1[siteID]) // forced value: the frame-1 good value
	e.faultyCone(siteID, v2, siteVar)

	diff := e.newVar()
	pos := e.conePOs()
	if len(pos) == 0 {
		e.add(-diff)
	} else {
		long = make([]sat.Lit, 0, len(pos)+1)
		for _, id := range pos {
			dp := e.newVar()
			e.xorEquiv(dp, v2[id], e.faulty[id])
			e.add(-dp, diff)
			long = append(long, dp)
		}
		e.add(append(long, -diff)...)
	}
	e.add(-d, exc)
	e.add(-d, diff)
	e.add(d, -exc, -diff)
	return d
}
