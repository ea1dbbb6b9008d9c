package fault

import (
	"testing"

	"gobd/internal/logic"
)

// leavesOf counts the leaves of the network driven by gate input i.
func leavesOf(n *Network, i int) int {
	if n.Kind == Leaf {
		if n.Input == i {
			return 1
		}
		return 0
	}
	c := 0
	for _, ch := range n.Children {
		c += leavesOf(ch, i)
	}
	return c
}

// TestExcitedBitsMatchesNetworks pins the gate-evaluation excitation the
// event engine uses (ExcitedBits, packed 64 lanes per word) to the
// series-parallel tree walk (Excited) for every primitive gate shape, both
// sides, every pin and every complete local pair (v1, v2), and requires
// ExcitationPairs to list exactly the pairs the tree walk excites, in the
// walk's v1-major order. It also checks the structural fact both
// ExcitedBits and OBDUniverse rely on: each pin drives exactly one leaf
// per side.
func TestExcitedBitsMatchesNetworks(t *testing.T) {
	type shape struct {
		t     logic.GateType
		arity int
	}
	shapes := []shape{{logic.Inv, 1}, {logic.Aoi21, 3}, {logic.Oai21, 3}}
	for n := 2; n <= 6; n++ {
		shapes = append(shapes, shape{logic.Nand, n}, shape{logic.Nor, n})
	}
	for _, sh := range shapes {
		nets, ok := GateNetworks(sh.t, sh.arity)
		if !ok || !primitive(sh.t) {
			t.Fatalf("%v/%d: not primitive", sh.t, sh.arity)
		}
		for i := 0; i < sh.arity; i++ {
			if u, d := leavesOf(nets.PullUp, i), leavesOf(nets.PullDown, i); u != 1 || d != 1 {
				t.Errorf("%v/%d pin %d drives %d PMOS and %d NMOS leaves, want 1 and 1", sh.t, sh.arity, i, u, d)
			}
		}
		faults, err := GateOBDFaults(sh.t, sh.arity)
		if err != nil {
			t.Fatal(err)
		}
		if len(faults) != 2*sh.arity {
			t.Fatalf("%v/%d has %d OBD faults, want %d", sh.t, sh.arity, len(faults), 2*sh.arity)
		}
		// OBDUniverse enumerates from primitive alone, in the tree-derived
		// order of GateOBDFaults.
		c := logic.New("one")
		for _, in := range faults[0].Gate.Inputs {
			if err := c.AddInput(in); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.AddGate("g", sh.t, "y", faults[0].Gate.Inputs...); err != nil {
			t.Fatal(err)
		}
		univ, _ := OBDUniverse(c)
		if len(univ) != len(faults) {
			t.Fatalf("%v/%d: OBDUniverse has %d faults, GateOBDFaults %d", sh.t, sh.arity, len(univ), len(faults))
		}
		for i, f := range univ {
			if f.Input != faults[i].Input || f.Side != faults[i].Side {
				t.Fatalf("%v/%d: OBDUniverse[%d] = %v@%d, GateOBDFaults has %v@%d",
					sh.t, sh.arity, i, f.Side, f.Input, faults[i].Side, faults[i].Input)
			}
		}
		g := faults[0].Gate
		asg := enumAssignments(sh.arity)
		for _, f := range faults {
			var walk []Pair
			for _, v1 := range asg {
				for _, v2 := range asg {
					if f.Excited(v1, v2) {
						walk = append(walk, Pair{V1: v1, V2: v2})
					}
				}
			}
			got := f.ExcitationPairs()
			if len(got) != len(walk) {
				t.Fatalf("%s: ExcitationPairs lists %d pairs, tree walk %d", f, len(got), len(walk))
			}
			for i := range walk {
				if !got[i].Equal(walk[i]) {
					t.Fatalf("%s: ExcitationPairs[%d] = %v, tree walk %v", f, i, got[i], walk[i])
				}
			}
		}
		total := len(asg) * len(asg)
		w1 := make([]uint64, sh.arity)
		w2 := make([]uint64, sh.arity)
		for base := 0; base < total; base += 64 {
			lanes := min(64, total-base)
			for i := range w1 {
				w1[i], w2[i] = 0, 0
			}
			for k := 0; k < lanes; k++ {
				p := base + k
				v1, v2 := asg[p/len(asg)], asg[p%len(asg)]
				for i := range w1 {
					if v1[i] == logic.One {
						w1[i] |= 1 << uint(k)
					}
					if v2[i] == logic.One {
						w2[i] |= 1 << uint(k)
					}
				}
			}
			o1, o2 := g.EvalBits(w1), g.EvalBits(w2)
			for _, f := range faults {
				saved := append([]uint64(nil), w2...)
				got := f.ExcitedBits(o1, o2, w2)
				for i := range w2 {
					if w2[i] != saved[i] {
						t.Fatalf("%s: ExcitedBits left pin %d's word changed", f, i)
					}
				}
				for k := 0; k < lanes; k++ {
					p := base + k
					v1, v2 := asg[p/len(asg)], asg[p%len(asg)]
					if want := f.Excited(v1, v2); (got>>uint(k)&1 == 1) != want {
						t.Fatalf("%v/%d %s at %v: ExcitedBits = %v, tree walk = %v",
							sh.t, sh.arity, f, Pair{V1: v1, V2: v2}, !want, want)
					}
				}
			}
		}
	}
	// Composite gates have no transistor-level realization: no lane is
	// ever excited.
	and := &logic.Gate{Name: "and", Type: logic.And, Inputs: []string{"a", "b"}, Output: "y"}
	for _, side := range []Side{PullUp, PullDown} {
		f := OBD{Gate: and, Input: 0, Side: side}
		if got := f.ExcitedBits(0, ^uint64(0), []uint64{^uint64(0), 0xF0F0}); got != 0 {
			t.Errorf("%s: composite gate excited lanes %#x", f, got)
		}
		if ps := f.ExcitationPairs(); len(ps) != 0 {
			t.Errorf("%s: composite gate lists excitation pairs %v", f, ps)
		}
	}
}
