package fault

import (
	"sort"
	"strings"
	"sync"

	"gobd/internal/logic"
)

// CollapseOBD partitions an OBD fault list into local-equivalence classes:
// two faults of the SAME gate are equivalent when their excitation pair
// sets are identical, because they then produce exactly the same slowed
// transition at the same site for every possible vector pair — no test can
// tell them apart anywhere in any circuit. For a NAND this merges the
// series NMOS defects (all excited by every falling pair) while keeping
// each parallel PMOS defect distinct, mirroring the paper's Table 1
// structure. The first fault of each class is its representative.
func CollapseOBD(faults []OBD) [][]OBD {
	out := make([][]OBD, 0)
	for _, idxs := range CollapseOBDIndices(faults) {
		cl := make([]OBD, 0, len(idxs))
		for _, i := range idxs {
			cl = append(cl, faults[i])
		}
		out = append(out, cl)
	}
	return out
}

// CollapseOBDIndices is CollapseOBD over fault-list positions: each class
// holds the indices of its members in ascending order, and classes appear
// in first-member order. netcheck.CollapseOBDComplete merges these
// index classes into its cross-gate ones.
func CollapseOBDIndices(faults []OBD) [][]int {
	// Gates are keyed by identity, not name: a fault list may mix gates
	// from different circuits (or synthetic local gates) whose names
	// collide, and same-gate equivalence only holds within one instance.
	type key struct {
		g     *logic.Gate
		pairs string
	}
	byKey := make(map[key][]int)
	var order []key
	for i, f := range faults {
		k := key{f.Gate, pairSetKey(f)}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out
}

// EdgeComplete reports whether the fault is excited by EVERY complete
// local vector pair that makes the matching output transition — true
// exactly when the defective transistor lies on every conducting path of
// its pull network, i.e. every ancestor of its leaf is a Series node (or
// the leaf is the whole network, as in an inverter). For such faults the
// conduction conditions are implied by the output edge itself: the side
// conducting means all series devices are on, and removing any one cuts
// the only path. Series NMOS stacks (NAND pull-down), series PMOS stacks
// (NOR pull-up) and both inverter devices qualify; parallel devices do
// not (their excitation additionally demands solitary conduction).
// Edge-complete faults are what inverter-chain collapsing may merge
// across gates (see netcheck.CollapseOBDComplete).
func (f OBD) EdgeComplete() bool {
	nets, ok := GateNetworks(f.Gate.Type, len(f.Gate.Inputs))
	if !ok {
		return false
	}
	n := nets.PullUp
	if f.Side == PullDown {
		n = nets.PullDown
	}
	_, all := onEveryPath(n, f.Input)
	return all
}

// onEveryPath walks the network for the leaf of the given input:
// contains reports the leaf is in this subtree, all that every ancestor
// within the subtree keeps it on every conducting path.
func onEveryPath(n *Network, input int) (contains, all bool) {
	switch n.Kind {
	case Leaf:
		return n.Input == input, n.Input == input
	case Series:
		for _, ch := range n.Children {
			if c, a := onEveryPath(ch, input); c {
				return true, a
			}
		}
		return false, false
	default: // Parallel: a sibling branch can conduct around the leaf
		for _, ch := range n.Children {
			if c, _ := onEveryPath(ch, input); c {
				return true, false
			}
		}
		return false, false
	}
}

// Representatives returns one fault per equivalence class.
func Representatives(classes [][]OBD) []OBD {
	out := make([]OBD, 0, len(classes))
	for _, cl := range classes {
		out = append(out, cl[0])
	}
	return out
}

// pairKeyID identifies an excitation pair set without the gate instance:
// the set is determined by the gate function and the defect location
// alone, so the canonical key can be computed once per shape and shared
// across every instance in a big circuit.
type pairKeyID struct {
	typ   logic.GateType
	arity int
	input int
	side  Side
}

var pairKeyCache sync.Map // pairKeyID → string

// pairSetKey canonicalizes a fault's excitation pair set.
func pairSetKey(f OBD) string {
	id := pairKeyID{f.Gate.Type, len(f.Gate.Inputs), f.Input, f.Side}
	if v, ok := pairKeyCache.Load(id); ok {
		return v.(string)
	}
	ps := f.ExcitationPairs()
	ss := make([]string, len(ps))
	for i, p := range ps {
		ss[i] = p.String()
	}
	sort.Strings(ss)
	key := strings.Join(ss, ";")
	pairKeyCache.Store(id, key)
	return key
}
