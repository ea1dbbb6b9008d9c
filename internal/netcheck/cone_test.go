package netcheck

import (
	"math/rand"
	"testing"

	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/sat"
)

// fullFrameUnits and fullFrame2 are the whole-circuit encoders the cone
// rule replaced, kept as references: a variable for every net, every
// gate's clauses, then the instance's own clauses over that frame.
func fullFrameUnits(x *logic.Index, demands []sideVal) *cnfBuilder {
	b := &cnfBuilder{}
	vars := b.encodeFrame(x)
	b.demandUnits(x, vars, demands)
	return b
}

func fullFrame2(x *logic.Index, f fault.OBD, o1 logic.Value, demands []sideVal) *cnfBuilder {
	b := &cnfBuilder{}
	vars := b.encodeFrame(x)
	b.demandUnits(x, vars, demands)
	site := int32(x.NetIDs[f.Gate.Output])
	cone := make([]bool, x.NumNets())
	cone[site] = true
	for stack := []int32{site}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, gi := range x.Fanouts[id] {
			if out := x.GateOut[gi]; !cone[out] {
				cone[out] = true
				stack = append(stack, out)
			}
		}
	}
	siteVar := b.newVar()
	if o1 == logic.One {
		b.add(siteVar)
	} else {
		b.add(-siteVar)
	}
	faulty := make([]sat.Lit, x.NumNets())
	for id := range faulty {
		if cone[id] {
			faulty[id] = b.newVar()
		}
	}
	faulty[site] = siteVar
	for gi, g := range x.Gates {
		out := x.GateOut[gi]
		if out == site || !cone[out] {
			continue
		}
		ins := make([]sat.Lit, len(x.GateIn[gi]))
		for k, id := range x.GateIn[gi] {
			ins[k] = vars[id]
			if cone[id] {
				ins[k] = faulty[id]
			}
		}
		b.encodeGate(g.Type, faulty[out], ins)
	}
	var ds []sat.Lit
	seen := make([]bool, x.NumNets())
	for _, id := range x.OutputIDs {
		if cone[id] && !seen[id] {
			seen[id] = true
			d := b.newVar()
			b.add(-d, vars[id], faulty[id])
			b.add(-d, -vars[id], -faulty[id])
			ds = append(ds, d)
		}
	}
	b.add(ds...)
	return b
}

// TestConeInstancesMatchFullFrame: a cone instance is satisfiable
// exactly when the whole-circuit instance is, and it is never larger. On
// seeded random circuits (primitive and mixed gate types, some with
// flip-flops, decided over the core), every excitation pair of every
// fault, both frames, and both values of every gate output are encoded
// both ways; the cone instance is solved on a SAT-only prover's reused
// solver, the full one on a fresh solver.
func TestConeInstancesMatchFullFrame(t *testing.T) {
	circuits := []*logic.Circuit{cells.FullAdderSumLogic()}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := logic.RandomOptions{Inputs: 3 + rng.Intn(8), Gates: 6 + rng.Intn(40), Primitive: seed%3 != 0}
		if seed%4 == 0 {
			opt.FFs = 1 + rng.Intn(3)
		}
		circuits = append(circuits, logic.RandomCircuit(rng, opt))
	}
	var n [3]int // instances by full-frame status
	smaller := 0
	for ci, c := range circuits {
		p := NewProver(c, 0)
		p.pg = fault.NewPairGrader(p.c, 0, nil)
		x := p.x
		check := func(what string, full *cnfBuilder) {
			t.Helper()
			cone := &p.enc.cnfBuilder
			if cone.nv > full.nv || len(cone.clauses) > len(full.clauses) {
				t.Fatalf("circuit %d %s: cone instance has %d variables and %d clauses, the full one %d and %d",
					ci, what, cone.nv, len(cone.clauses), full.nv, len(full.clauses))
			}
			if cone.nv < full.nv {
				smaller++
			}
			got := p.solve()
			_, want := full.run(0)
			if got != want {
				t.Fatalf("circuit %d %s: cone instance %v, full instance %v", ci, what, got, want)
			}
			n[want]++
		}
		faults, _ := fault.OBDUniverse(c)
		for _, f := range faults {
			if p.seq {
				f = onCore(p.c, f)
			}
			for _, pr := range f.ExcitationPairs() {
				d2, conf2 := demandByNet(f.Gate, pr.V2)
				d1, conf1 := demandByNet(f.Gate, pr.V1)
				if conf2 || conf1 {
					continue
				}
				o1 := f.Gate.Eval(pr.V1)
				p.enc.obdFrame2(f, o1, d2)
				check(f.String()+" "+pr.String()+" frame 2", fullFrame2(x, f, o1, d2))
				p.enc.frameUnits(d1)
				check(f.String()+" "+pr.String()+" frame 1", fullFrameUnits(x, d1))
			}
		}
		for _, g := range p.c.Ordered() {
			for _, v := range []logic.Value{logic.Zero, logic.One} {
				probe := []sideVal{{net: g.Output, val: v}}
				p.enc.frameUnits(probe)
				check(g.Output+"="+v.String(), fullFrameUnits(x, probe))
			}
		}
	}
	if n[sat.Sat] == 0 || n[sat.Unsat] == 0 || smaller == 0 {
		t.Fatalf("%d satisfiable, %d unsatisfiable and %d strictly smaller instances: the test exercises too little",
			n[sat.Sat], n[sat.Unsat], smaller)
	}
}

// TestProverInstanceZeroAlloc: a warm prover encodes and loads an
// instance without allocating. The instances are both frames of the
// first excitation pair of a c432 fault that simulation leaves to SAT.
func TestProverInstanceZeroAlloc(t *testing.T) {
	c, err := logic.ParseFile("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProver(c, DefaultExactBudget)
	faults, _ := fault.OBDUniverse(c)
	for _, f := range faults {
		if p.witness(f) != nil {
			continue
		}
		for _, pr := range f.ExcitationPairs() {
			d2, conf2 := demandByNet(f.Gate, pr.V2)
			d1, conf1 := demandByNet(f.Gate, pr.V1)
			if conf2 || conf1 {
				continue
			}
			o1 := f.Gate.Eval(pr.V1)
			if allocs := testing.AllocsPerRun(20, func() {
				p.enc.obdFrame2(f, o1, d2)
				p.enc.load(&p.s)
				p.enc.frameUnits(d1)
				p.enc.load(&p.s)
			}); allocs != 0 {
				t.Fatalf("%s %s: %v allocations per encoded and loaded pair of instances", f, pr, allocs)
			}
			return
		}
	}
	t.Fatal("simulation left no c432 fault with a conflict-free excitation pair to SAT")
}
