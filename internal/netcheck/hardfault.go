package netcheck

import (
	"sort"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// HardFault is one entry of the SCOAP-ranked report over the faults the
// exact census did not prove untestable: the ones PODEM will actually
// have to work for, ordered by estimated effort.
type HardFault struct {
	Fault string `json:"fault"`
	// Cost = CC + CO for the cheapest excitation pair.
	Cost int `json:"cost"`
	// CC sums the SCOAP controllabilities of the local values the cheapest
	// pair demands, over both frames.
	CC int `json:"cc"`
	// CO is the SCOAP observability of the site gate's output.
	CO int `json:"co"`
	// Pair is the cheapest excitation pair, in the paper's notation.
	Pair string `json:"pair"`
}

// HardFaults ranks faults by SCOAP effort, hardest first (ties keep the
// input fault order). top caps the list length (0 = all). The circuit
// must validate.
func HardFaults(c *logic.Circuit, faults []fault.OBD, top int) []HardFault {
	if len(faults) == 0 {
		return nil
	}
	tb := logic.ComputeTestability(c)
	out := make([]HardFault, 0, len(faults))
	for _, f := range faults {
		co := tb.CO[f.Gate.Output]
		bestCC := -1
		bestPair := ""
		for _, p := range f.ExcitationPairs() {
			cc := pairCC(f.Gate, p, tb)
			if bestCC < 0 || cc < bestCC {
				bestCC = cc
				bestPair = p.String()
			}
		}
		if bestCC < 0 {
			continue // no excitation pairs: nothing to rank
		}
		out = append(out, HardFault{
			Fault: f.String(),
			Cost:  bestCC + co,
			CC:    bestCC,
			CO:    co,
			Pair:  bestPair,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost > out[j].Cost })
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// pairCC sums the controllability of every local value the pair demands,
// counting each distinct net once per frame (tied nets demand one value).
func pairCC(g *logic.Gate, p fault.Pair, tb *logic.Testability) int {
	cost := 0
	for _, frame := range [][]logic.Value{p.V1, p.V2} {
		seen := make(map[string]bool, len(g.Inputs))
		for pi, in := range g.Inputs {
			if seen[in] {
				continue
			}
			seen[in] = true
			switch frame[pi] {
			case logic.Zero:
				cost += tb.CC0[in]
			case logic.One:
				cost += tb.CC1[in]
			case logic.X:
				// Unconstrained input: costs nothing to justify.
			}
		}
	}
	return cost
}
