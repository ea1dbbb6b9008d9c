package netcheck

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file extends fault.CollapseOBD's same-gate equivalence with a
// structural cross-gate rule, the inverter-chain merge. Let gate g drive
// net s, let s feed EXACTLY one gate — an inverter h — and let s not be a
// primary output. Then h dominates every propagation path of any fault
// on g (the one-fanout cone makes it a dominator trivially), and more:
// every faulty value of s is observable only through h, and h adds no
// masking of its own. For a fault f of g that is EDGE-COMPLETE (excited
// by every complete local pair with its output edge — series NMOS/PMOS
// stacks and inverter devices, see fault.OBD.EdgeComplete), the
// matching-direction fault of h is excited by exactly the same complete
// vector pairs, and forcing s to its frame-1 value propagates through h
// to exactly the value h's own fault forces. The two faults are
// therefore detected by precisely the same complete pairs — per-pair,
// not merely per-set.
//
// The equivalence needs completeness: with X lanes, f additionally
// demands g's local values known in both frames, which h's fault does
// not, so a pair can excite one and not the other. On complete test sets
// (fault.PairGrader.Complete) the fan-out of a representative's verdicts
// onto its class is bit-identical to grading every site. The classes
// are an analysis result (CertifyCollapseOBD proves them); grading does
// not use them, because building them costs more than grading the faults
// they would save.

// CollapseOBDComplete partitions a fault list into classes that are
// pairwise equivalent under COMPLETE two-pattern sets: the union of
// fault.CollapseOBD's same-gate classes (exact for any pattern set) and
// the inverter-chain merges above (exact for complete sets). Each class
// holds ascending indices into faults; classes appear in first-member
// order. The circuit must validate.
func CollapseOBDComplete(c *logic.Circuit, faults []fault.OBD) [][]int {
	parent := make([]int, len(faults))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, cl := range fault.CollapseOBDIndices(faults) {
		for _, i := range cl[1:] {
			union(cl[0], i)
		}
	}
	type loc struct {
		g     *logic.Gate
		input int
		side  fault.Side
	}
	byLoc := make(map[loc][]int, len(faults))
	for i, f := range faults {
		k := loc{f.Gate, f.Input, f.Side}
		byLoc[k] = append(byLoc[k], i)
	}
	isPO := make(map[string]bool, len(c.Outputs))
	for _, po := range c.Outputs {
		isPO[po] = true
	}
	for i, f := range faults {
		s := f.Gate.Output
		// The driver check rejects synthetic gates that merely share a net
		// name with the circuit; chain reasoning is structural and only
		// applies to gates actually wired in.
		if !f.EdgeComplete() || isPO[s] || c.Driver(s) != f.Gate {
			continue
		}
		fo := c.Fanout(s)
		if len(fo) != 1 || fo[0].Type != logic.Inv {
			continue
		}
		// f drives s to 0 (PullDown) ⇒ s falls ⇒ h's output rises ⇒ h's
		// pull-up conducts the new value: the image side is the opposite.
		img := fault.PullUp
		if f.Side == fault.PullUp {
			img = fault.PullDown
		}
		for _, j := range byLoc[loc{fo[0], 0, img}] {
			union(i, j)
		}
	}
	groups := make(map[int][]int, len(faults))
	var order []int
	for i := range faults {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}
