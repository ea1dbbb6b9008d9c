package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file holds the word-level pieces of 64-way bit-parallel
// two-pattern OBD grading that the event-driven PairGrader (event.go),
// the repo's one bit-parallel OBD engine, builds on: lane masks and the
// series-parallel conduction rule over 64 assignments at once, plus the
// package-level GradeOBDParallel entry point.

// laneMask returns the mask selecting the first n of 64 lanes.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// conductBits evaluates series-parallel conduction bitwise over 64
// assignments: bit k is 1 iff the network conducts under assignment k.
// The transistor at leaf `removed` is forced off; pass -1 for none.
func conductBits(n *fault.Network, side fault.Side, in []uint64, removed int) uint64 {
	switch n.Kind {
	case fault.Leaf:
		if n.Input == removed {
			return 0
		}
		v := in[n.Input]
		if side == fault.PullUp {
			v = ^v
		}
		return v
	case fault.Series:
		r := ^uint64(0)
		for _, ch := range n.Children {
			r &= conductBits(ch, side, in, removed)
		}
		return r
	default: // Parallel
		r := uint64(0)
		for _, ch := range n.Children {
			r |= conductBits(ch, side, in, removed)
		}
		return r
	}
}

// GradeOBDParallel fault-simulates a test set against an OBD fault list
// using the 64-way engine sharded across the default scheduler's worker
// pool; it returns the same Coverage as GradeOBD (including the order of
// Undetected) for any worker count. The error is a typed
// *InvalidCircuitError when the circuit fails validation.
func GradeOBDParallel(c *logic.Circuit, faults []fault.OBD, tests []TwoPattern) (Coverage, error) {
	return DefaultScheduler().GradeOBD(c, faults, tests)
}
