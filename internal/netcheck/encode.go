package netcheck

// This file is the bridge between circuits and the CDCL solver: a
// Tseitin encoder over the dense logic.Index, plus the miter
// constructions the exact prover (exact.go) solves —
//
//   - a per-frame circuit copy (encodeFrame), one Boolean variable per
//     net, gate semantics as biconditional clauses;
//   - the two-time-frame OBD instances: frame 1 justifies the pair's V1
//     local values, frame 2 justifies V2 and propagates the forced-value
//     fault effect (site held at its frame-1 value) to some primary
//     output difference;
//   - a CEC miter for circuit-vs-circuit equivalence (shared inputs by
//     name, XOR difference over matched outputs);
//   - a detection-predicate encoding (encodeDetect) mirroring
//     atpg.DetectsOBD exactly, used to certify fault-collapsing classes.
//
// Everything here is deterministic: variables are handed out in net-ID
// order and clauses in gate order, so the prover and the independent
// verifier rebuild bit-identical CNFs from the same circuit.

import (
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

// reset empties the builder, keeping its storage, for a CNF whose first
// nv variables are already taken: a tail that follows a shared frame.
// The clauses added before reset are overwritten by the next ones.
func (b *cnfBuilder) reset(nv int) {
	b.nv = nv
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
	load(s, b.nv, b.clauses)
	return s, s.Solve()
}

// load resets s and feeds it a CNF over nv variables given as parts:
// every variable first, then each part's clauses in order. A CNF split
// into a shared prefix and a tail therefore loads exactly like the one
// list holding both, with the same status, model and proof, and neither
// part is copied on the way.
func load(s *sat.Solver, nv int, parts ...[][]sat.Lit) {
	s.Reset()
	for s.NumVars() < nv {
		s.NewVar()
	}
	for _, part := range parts {
		for _, cl := range part {
			s.AddClause(cl...)
		}
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
		long := make([]sat.Lit, 0, len(ins)+1)
		for _, a := range ins {
			b.add(-out, a)
			long = append(long, -a)
		}
		b.add(append(long, out)...)
	case logic.Nand:
		long := make([]sat.Lit, 0, len(ins)+1)
		for _, a := range ins {
			b.add(out, a)
			long = append(long, -a)
		}
		b.add(append(long, -out)...)
	case logic.Or:
		long := make([]sat.Lit, 0, len(ins)+1)
		for _, a := range ins {
			b.add(out, -a)
			long = append(long, a)
		}
		b.add(append(long, -out)...)
	case logic.Nor:
		long := make([]sat.Lit, 0, len(ins)+1)
		for _, a := range ins {
			b.add(-out, -a)
			long = append(long, a)
		}
		b.add(append(long, out)...)
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

// encodeFaultyCone duplicates the fanout cone of siteID over fresh
// variables, with the site itself bound to siteVar; nets outside the
// cone read from the good copy. Returns the faulty-copy literals
// (zero outside the cone).
func (b *cnfBuilder) encodeFaultyCone(x *logic.Index, vars []sat.Lit, cone []bool, siteID int32, siteVar sat.Lit) []sat.Lit {
	fvars := make([]sat.Lit, x.NumNets())
	for id := range fvars {
		if cone[id] {
			fvars[id] = b.newVar()
		}
	}
	fvars[siteID] = siteVar
	for gi, g := range x.Gates {
		out := x.GateOut[gi]
		if out == siteID || !cone[out] {
			continue
		}
		ins := make([]sat.Lit, len(x.GateIn[gi]))
		for k, id := range x.GateIn[gi] {
			if cone[id] {
				ins[k] = fvars[id]
			} else {
				ins[k] = vars[id]
			}
		}
		b.encodeGate(g.Type, fvars[out], ins)
	}
	return fvars
}

// conePOs returns the deduplicated primary-output net IDs inside the
// cone, in OutputIDs order.
func conePOs(x *logic.Index, cone []bool) []int32 {
	seen := make([]bool, x.NumNets())
	var out []int32
	for _, id := range x.OutputIDs {
		if cone[id] && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// assertPODiff constrains some in-cone primary output to differ between
// the good and faulty copies (one-directional indicators suffice for a
// satisfiability miter). With no PO in the cone it emits the empty
// clause — the fault effect is trivially unobservable.
func (b *cnfBuilder) assertPODiff(x *logic.Index, vars, fvars []sat.Lit, cone []bool) {
	pos := conePOs(x, cone)
	ds := make([]sat.Lit, 0, len(pos))
	for _, id := range pos {
		d := b.newVar()
		// d → (good ⊕ faulty)
		b.add(-d, vars[id], fvars[id])
		b.add(-d, -vars[id], -fvars[id])
		ds = append(ds, d)
	}
	b.add(ds...)
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
		lit := vars[x.NetIDs[d.net]]
		if d.val == logic.Zero {
			lit = -lit
		}
		b.add(lit)
	}
}

// frameUnits builds one circuit copy plus each demanded net value as a
// unit clause: the frame-1 justification instance of an excitation pair
// (its V1 values on the site gate's distinct input nets), and the probe
// that refutes a constant net's other value.
func frameUnits(x *logic.Index, demands []sideVal) (*cnfBuilder, []sat.Lit) {
	b := &cnfBuilder{}
	vars := b.encodeFrame(x)
	b.demandUnits(x, vars, demands)
	return b, vars
}

// obdFrame2 builds the frame-2 excitation-and-propagation instance: the
// good copy constrained to the pair's V2 local values, a faulty cone
// copy with the site forced to its frame-1 good value o1 (the paper's
// gross-delay forced-value fault model), and a primary-output
// difference between the copies.
func obdFrame2(x *logic.Index, f fault.OBD, o1 logic.Value, demands []sideVal) (*cnfBuilder, []sat.Lit) {
	b := &cnfBuilder{}
	vars := b.encodeFrame(x)
	b.frame2Tail(x, vars, f, o1, demands)
	return b, vars
}

// frame2Tail emits everything obdFrame2 adds to the good frame vars:
// the demand units, the forced site, the faulty cone and the primary
// output difference. The exact prover emits it after a frame it encoded
// once; obdFrame2 after a fresh one.
func (b *cnfBuilder) frame2Tail(x *logic.Index, vars []sat.Lit, f fault.OBD, o1 logic.Value, demands []sideVal) {
	b.demandUnits(x, vars, demands)
	siteID := int32(x.NetIDs[f.Gate.Output])
	cone := x.FanoutCone(siteID)
	siteVar := b.newVar()
	if o1 == logic.One {
		b.add(siteVar)
	} else {
		b.add(-siteVar)
	}
	fvars := b.encodeFaultyCone(x, vars, cone, siteID, siteVar)
	b.assertPODiff(x, vars, fvars, cone)
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
func (b *cnfBuilder) encodeDetect(x *logic.Index, f fault.OBD, v1, v2 []sat.Lit) sat.Lit {
	d := b.newVar()
	var sels []sat.Lit
	for _, p := range f.ExcitationPairs() {
		d2, c2 := demandByNet(f.Gate, p.V2)
		d1, c1 := demandByNet(f.Gate, p.V1)
		if c1 || c2 {
			continue // tied-net conflict: the pair matches no real assignment
		}
		sel := b.newVar()
		neg := make([]sat.Lit, 0, len(d1)+len(d2)+1)
		for _, dm := range d1 {
			l := litOf(x, v1, dm)
			b.add(-sel, l)
			neg = append(neg, -l)
		}
		for _, dm := range d2 {
			l := litOf(x, v2, dm)
			b.add(-sel, l)
			neg = append(neg, -l)
		}
		b.add(append(neg, sel)...)
		sels = append(sels, sel)
	}
	if len(sels) == 0 {
		b.add(-d)
		return d
	}
	exc := b.newVar()
	long := make([]sat.Lit, 0, len(sels)+1)
	for _, s := range sels {
		b.add(-s, exc)
		long = append(long, s)
	}
	b.add(append(long, -exc)...)

	siteID := int32(x.NetIDs[f.Gate.Output])
	cone := x.FanoutCone(siteID)
	siteVar := b.newVar()
	b.equiv(siteVar, v1[siteID]) // forced value: the frame-1 good value
	fvars := b.encodeFaultyCone(x, v2, cone, siteID, siteVar)

	diff := b.newVar()
	pos := conePOs(x, cone)
	if len(pos) == 0 {
		b.add(-diff)
	} else {
		long = make([]sat.Lit, 0, len(pos)+1)
		for _, id := range pos {
			dp := b.newVar()
			b.xorEquiv(dp, v2[id], fvars[id])
			b.add(-dp, diff)
			long = append(long, dp)
		}
		b.add(append(long, -diff)...)
	}
	b.add(-d, exc)
	b.add(-d, diff)
	b.add(d, -exc, -diff)
	return d
}
