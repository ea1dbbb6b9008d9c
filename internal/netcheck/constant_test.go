package netcheck

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gobd/internal/cells"
	"gobd/internal/logic"
	"gobd/internal/sat"
)

// constantNets renders constants as net=value strings, in order.
func constantNets(ks []Constant) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("%s=%v", k.Net, k.Val)
	}
	return out
}

// verifyAll requires every constant to pass VerifyConstant on c.
func verifyAll(t *testing.T, c *logic.Circuit, ks []Constant) {
	t.Helper()
	for _, k := range ks {
		if err := VerifyConstant(c, k); err != nil {
			t.Fatalf("%s: %s=%v does not verify: %v", c.Name, k.Net, k.Val, err)
		}
	}
}

// exhaustiveConstants enumerates every input assignment of a
// combinational circuit, 64 per word, and returns the gate outputs that
// never change as net=value strings in c.Ordered() order.
func exhaustiveConstants(c *logic.Circuit) []string {
	x := c.Index()
	order := c.Ordered()
	words := make([]uint64, x.NumNets())
	took := make([]uint8, x.NumNets()) // bit v: the net took value v
	total := 1 << len(c.Inputs)
	var ins []uint64
	for base := 0; base < total; base += 64 {
		mask := ^uint64(0)
		if total-base < 64 {
			mask = 1<<uint(total-base) - 1
		}
		for i, id := range x.InputIDs {
			var w uint64
			for k := 0; k < 64; k++ {
				w |= uint64((base+k)>>i&1) << uint(k)
			}
			words[id] = w
		}
		for _, g := range order {
			ins = ins[:0]
			for _, in := range g.Inputs {
				ins = append(ins, words[x.NetIDs[in]])
			}
			id := x.NetIDs[g.Output]
			words[id] = g.EvalBits(ins)
			if words[id]&mask != 0 {
				took[id] |= 2
			}
			if words[id]&mask != mask {
				took[id] |= 1
			}
		}
	}
	var out []string
	for _, g := range order {
		switch took[x.NetIDs[g.Output]] {
		case 1:
			out = append(out, g.Output+"=0")
		case 2:
			out = append(out, g.Output+"=1")
		}
	}
	return out
}

// TestConstantsMatchExhaustive is the completeness property test: on
// seeded random circuits with at most 16 inputs (primitive and composite
// gate mixes, tied-input gates, sequential circuits through their
// combinational core), Constants equals exhaustive enumeration of every
// gate output in net, value and order, and every constant verifies.
func TestConstantsMatchExhaustive(t *testing.T) {
	found, tied, seqs := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := logic.RandomOptions{
			Inputs:    2 + rng.Intn(8),
			Gates:     3 + rng.Intn(30),
			Primitive: seed%2 == 0,
		}
		if seed%10 == 0 {
			opt.Inputs = 10 + rng.Intn(5)
		}
		if seed%4 == 1 {
			opt.FFs = 1 + rng.Intn(2)
		}
		c := logic.RandomCircuit(rng, opt)
		core := c
		if opt.FFs > 0 {
			seqs++
			var err error
			if core, err = c.CombinationalCore(); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range core.Gates {
			if len(g.Inputs) > 1 && g.Inputs[0] == g.Inputs[1] {
				tied++
			}
		}
		got := Constants(c)
		if want := exhaustiveConstants(core); !slices.Equal(constantNets(got), want) {
			t.Fatalf("seed %d (%+v): Constants %v, exhaustive enumeration %v", seed, opt, constantNets(got), want)
		}
		if opt.FFs > 0 {
			if onCore := Constants(core); !reflect.DeepEqual(got, onCore) {
				t.Fatalf("seed %d: Constants of the circuit %v, of its core %v", seed, constantNets(got), constantNets(onCore))
			}
		}
		verifyAll(t, c, got)
		found += len(got)
	}
	if found == 0 || tied == 0 || seqs == 0 {
		t.Fatalf("%d constants, %d tied-input gates, %d sequential circuits: the generator missed a case", found, tied, seqs)
	}
	t.Logf("%d constants, %d tied-input gates, %d sequential circuits", found, tied, seqs)
}

// TestConstantsFullAdder: the paper's redundant full-adder sum circuit
// has d2·qi = (A·!B)·(!A·B), which can never be satisfied, so
// d3 = NAND(d2, qi) is structurally 1, and nothing else is constant.
func TestConstantsFullAdder(t *testing.T) {
	c := cells.FullAdderSumLogic()
	consts := Constants(c)
	if got := constantNets(consts); !slices.Equal(got, []string{"d3=1"}) {
		t.Fatalf("constants = %v, want [d3=1]", got)
	}
	verifyAll(t, c, consts)
}

func TestConstantsCleanCircuits(t *testing.T) {
	for _, c := range []*logic.Circuit{logic.C17(), logic.RippleCarryAdder(2), logic.RippleCarryAdder(8), logic.Mux41(), logic.ParityTree(8)} {
		if consts := Constants(c); len(consts) != 0 {
			t.Fatalf("%s: unexpected constants %v", c.Name, constantNets(consts))
		}
	}
}

// TestConstantsBenchCircuits pins c432's constants in order, and decides
// s27 over its combinational core: evaluating its flip-flops as buffers
// around the state loop would make eight more nets look constant.
func TestConstantsBenchCircuits(t *testing.T) {
	for _, tc := range []struct {
		path string
		want []string
	}{
		{"../../testdata/c432.bench", []string{"g144=1", "g130=1"}},
		{"../../testdata/s27.bench", []string{"g4=1"}},
	} {
		c, err := logic.ParseFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		consts := Constants(c)
		if got := constantNets(consts); !slices.Equal(got, tc.want) {
			t.Fatalf("%s: constants = %v, want %v", tc.path, got, tc.want)
		}
		verifyAll(t, c, consts)
		if !c.HasDFF() {
			continue
		}
		core, err := c.CombinationalCore()
		if err != nil {
			t.Fatal(err)
		}
		if onCore := Constants(core); !reflect.DeepEqual(consts, onCore) {
			t.Fatalf("%s: Constants of the circuit %v, of its core %v", tc.path, constantNets(consts), constantNets(onCore))
		}
		verifyAll(t, core, consts)
	}
}

// parityMiter XNORs two XOR chains over the same n inputs, taken in
// different orders: the output eq is constant 1, and refuting eq=0
// takes the solver more than one conflict.
func parityMiter(t *testing.T, n int) *logic.Circuit {
	t.Helper()
	c := logic.New("parity-miter")
	for i := 0; i < n; i++ {
		if err := c.AddInput(fmt.Sprintf("x%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	chain := func(p string, order []int) string {
		acc := fmt.Sprintf("x%d", order[0])
		for k, i := range order[1:] {
			out := fmt.Sprintf("%s%d", p, k)
			mustGate(t, c, out, logic.Xor, out, acc, fmt.Sprintf("x%d", i))
			acc = out
		}
		return acc
	}
	up, down := make([]int, n), make([]int, n)
	for i := range up {
		up[i], down[i] = i, (i*3)%n
	}
	mustGate(t, c, "eq", logic.Xnor, "eq", chain("a", up), chain("b", down))
	c.AddOutput("eq")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConstantsBudgetReportsNothing: a probe that exhausts its conflict
// budget proves nothing, so a truly constant net is left out rather
// than listed with a proof that does not refute.
func TestConstantsBudgetReportsNothing(t *testing.T) {
	c := parityMiter(t, 8)
	if got := constantNets(Constants(c)); !slices.Equal(got, []string{"eq=1"}) {
		t.Fatalf("constants = %v, want [eq=1]", got)
	}
	tiny := NewProver(c, 1).constants()
	verifyAll(t, c, tiny)
	if len(tiny) != 0 {
		t.Fatalf("one-conflict budget: constants = %v, want none", constantNets(tiny))
	}
}

// TestVerifyConstantRejectsTampering: the checker re-derives the CNF from
// the circuit, so a certificate moved to another value or net, or
// stripped of its proof, fails with a *ConstantProofError.
func TestVerifyConstantRejectsTampering(t *testing.T) {
	c := cells.FullAdderSumLogic()
	k := Constants(c)[0]
	for _, tc := range []struct {
		name  string
		k     Constant
		check bool // the rejection comes from sat.Check
	}{
		{"flipped value", Constant{Net: k.Net, Val: k.Val.Not(), Proof: k.Proof}, true},
		{"another net's proof", Constant{Net: "s", Val: logic.One, Proof: k.Proof}, true},
		{"unknown net", Constant{Net: "nosuch", Val: k.Val, Proof: k.Proof}, false},
		{"unknown value", Constant{Net: k.Net, Val: logic.X, Proof: k.Proof}, false},
		{"emptied proof", Constant{Net: k.Net, Val: k.Val}, true},
	} {
		err := VerifyConstant(c, tc.k)
		var pe *ConstantProofError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: got %v, want a *ConstantProofError", tc.name, err)
		}
		var ce *sat.CheckError
		if errors.As(err, &ce) != tc.check {
			t.Fatalf("%s: %v wraps a *sat.CheckError = %v, want %v", tc.name, err, !tc.check, tc.check)
		}
	}
}
