// Package fault defines the gate-level fault models used in the
// reproduction — stuck-at, transition, intra-gate electromigration (EM) and
// the paper's per-transistor gate-oxide-breakdown (OBD) model — together
// with the series-parallel pull-network analysis that yields the paper's
// excitation rule: an OBD defect in a transistor is detectable at the gate
// output only if the output switches, the transistor conducts in the final
// state, and no transistor connected in parallel with it also conducts
// (Section 5 of the paper). The networks are the reference model;
// OBD.ExcitedBits evaluates the same rule 64 lanes at a time by gate
// evaluation, Respond and Detects are the scalar gross-delay simulation
// every grader shares, and PairGrader is the event-driven engine that
// grades OBD faults against packed pair sets.
package fault

import (
	"fmt"

	"gobd/internal/logic"
)

// NetKind is the node kind of a series-parallel network expression.
type NetKind int

// Network node kinds.
const (
	Leaf NetKind = iota
	Series
	Parallel
)

// Network is a series-parallel transistor network: leaves are transistors
// identified by the gate input index that drives them.
type Network struct {
	Kind     NetKind
	Input    int // for Leaf: driving gate-input index
	Children []*Network
}

func leaf(i int) *Network { return &Network{Kind: Leaf, Input: i} }

func series(ns ...*Network) *Network { return &Network{Kind: Series, Children: ns} }

func parallel(ns ...*Network) *Network { return &Network{Kind: Parallel, Children: ns} }

// Side distinguishes the pull-up (PMOS) and pull-down (NMOS) networks of a
// static CMOS gate.
type Side int

// Network sides.
const (
	PullUp   Side = iota // PMOS network to VDD
	PullDown             // NMOS network to ground
)

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == PullUp {
		return "PMOS"
	}
	return "NMOS"
}

// Networks holds both pull networks of a primitive static CMOS gate.
type Networks struct {
	PullUp   *Network
	PullDown *Network
}

// GateNetworks returns the transistor networks of a primitive static CMOS
// gate type, or ok=false for composite types (BUF/AND/OR/XOR/XNOR), which
// have no single-gate transistor-level realization.
func GateNetworks(t logic.GateType, arity int) (Networks, bool) {
	leaves := func() []*Network {
		ls := make([]*Network, arity)
		for i := range ls {
			ls[i] = leaf(i)
		}
		return ls
	}
	switch t {
	case logic.Inv:
		return Networks{PullUp: leaf(0), PullDown: leaf(0)}, true
	case logic.Nand:
		return Networks{PullUp: parallel(leaves()...), PullDown: series(leaves()...)}, true
	case logic.Nor:
		return Networks{PullUp: series(leaves()...), PullDown: parallel(leaves()...)}, true
	case logic.Aoi21:
		// out = !(a·b + c): pull-down parallel(series(a,b), c),
		// pull-up series(parallel(a,b), c).
		return Networks{
			PullUp:   series(parallel(leaf(0), leaf(1)), leaf(2)),
			PullDown: parallel(series(leaf(0), leaf(1)), leaf(2)),
		}, true
	case logic.Oai21:
		// out = !((a+b)·c): pull-down series(parallel(a,b), c),
		// pull-up parallel(series(a,b), c).
		return Networks{
			PullUp:   parallel(series(leaf(0), leaf(1)), leaf(2)),
			PullDown: series(parallel(leaf(0), leaf(1)), leaf(2)),
		}, true
	default:
		return Networks{}, false
	}
}

// primitive reports whether gates of type t have a transistor-level
// realization as one static CMOS cell: INV, NAND, NOR, AOI21 and OAI21.
// Every input pin of such a gate drives exactly one PMOS and one NMOS
// transistor (GateNetworks is the reference the fault tests check this
// against), so a primitive gate of arity n carries exactly 2n OBD faults.
// Composite types (BUF/AND/OR/XOR/XNOR) and DFF carry none.
func primitive(t logic.GateType) bool {
	switch t {
	case logic.Inv, logic.Nand, logic.Nor, logic.Aoi21, logic.Oai21:
		return true
	default:
		return false
	}
}

// leafOn reports whether the transistor driven by input value v conducts on
// the given side (NMOS conducts on 1, PMOS on 0). X inputs yield X.
func leafOn(v logic.Value, side Side) logic.Value {
	if side == PullDown {
		return v
	}
	return v.Not()
}

// Conducts evaluates three-valued conduction of the network under the gate
// input values. The transistor at leaf input index `removed` (on this
// side) is treated as forced off; pass -1 to remove nothing.
func (n *Network) Conducts(in []logic.Value, side Side, removed int) logic.Value {
	switch n.Kind {
	case Leaf:
		if n.Input == removed {
			return logic.Zero
		}
		return leafOn(in[n.Input], side)
	case Series:
		vs := make([]logic.Value, len(n.Children))
		for i, ch := range n.Children {
			vs[i] = ch.Conducts(in, side, removed)
		}
		return andAll(vs)
	case Parallel:
		vs := make([]logic.Value, len(n.Children))
		for i, ch := range n.Children {
			vs[i] = ch.Conducts(in, side, removed)
		}
		return orAll(vs)
	default:
		panic(fmt.Sprintf("fault: bad network kind %d", n.Kind))
	}
}

// ContainsInput reports whether the network has a leaf for the given input.
func (n *Network) ContainsInput(i int) bool {
	switch n.Kind {
	case Leaf:
		return n.Input == i
	default:
		for _, ch := range n.Children {
			if ch.ContainsInput(i) {
				return true
			}
		}
		return false
	}
}

// TransistorCount returns the number of leaves.
func (n *Network) TransistorCount() int {
	if n.Kind == Leaf {
		return 1
	}
	c := 0
	for _, ch := range n.Children {
		c += ch.TransistorCount()
	}
	return c
}

func andAll(vs []logic.Value) logic.Value {
	sawX := false
	for _, v := range vs {
		switch v {
		case logic.Zero:
			return logic.Zero
		case logic.X:
			sawX = true
		case logic.One:
			// Neutral for AND: contributes nothing.
		}
	}
	if sawX {
		return logic.X
	}
	return logic.One
}

func orAll(vs []logic.Value) logic.Value {
	sawX := false
	for _, v := range vs {
		switch v {
		case logic.One:
			return logic.One
		case logic.X:
			sawX = true
		case logic.Zero:
			// Neutral for OR: contributes nothing.
		}
	}
	if sawX {
		return logic.X
	}
	return logic.Zero
}
