package atpg

import (
	"sort"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// podemEngine is a PODEM search over primary-input assignments. It serves
// two problem shapes:
//
//   - justify-and-propagate (propagate=true): make every net in req take
//     its required good value AND drive a good/faulty difference from the
//     fault site (faulty machine: site forced to faultyVal) to a primary
//     output — the classical stuck-at PODEM formulation;
//   - justification only (propagate=false): make every net in req take its
//     required value (used for the first pattern of two-pattern tests).
//
// Completeness comes from branching both values of each decided PI; the
// objective/backtrace logic is only a search-direction heuristic.
type podemEngine struct {
	c         *logic.Circuit
	req       []netReq // sorted for determinism
	site      string
	faultyVal logic.Value
	propagate bool

	maxBacktracks int
	backtracks    int
	aborted       bool
	tb            *logic.Testability // optional SCOAP guidance

	assign Pattern
	result Pattern
}

type netReq struct {
	net string
	val logic.Value
}

// newPodem builds an engine. For propagate problems req must include the
// fault site's required good value. tb, when non-nil, steers the search
// heuristics (SCOAP guidance).
func newPodem(c *logic.Circuit, req map[string]logic.Value, site string, faultyVal logic.Value, propagate bool, maxBacktracks int, tb *logic.Testability) *podemEngine {
	e := &podemEngine{
		c: c, site: site, faultyVal: faultyVal, propagate: propagate,
		maxBacktracks: maxBacktracks, assign: make(Pattern), tb: tb,
	}
	for n, v := range req {
		e.req = append(e.req, netReq{net: n, val: v})
	}
	sort.Slice(e.req, func(i, j int) bool { return e.req[i].net < e.req[j].net })
	return e
}

// run executes the search. On success the returned pattern is the partial
// PI assignment (unmentioned inputs are don't-care).
func (e *podemEngine) run() (Pattern, Status) {
	if e.search() {
		return e.result, Detected
	}
	if e.aborted {
		return nil, Aborted
	}
	return nil, Untestable
}

func (e *podemEngine) search() bool {
	good := e.c.Eval(e.assign, nil)
	var faulty map[string]logic.Value
	if e.propagate {
		faulty = e.c.Eval(e.assign, map[string]logic.Value{e.site: e.faultyVal})
	}

	// Requirement check and completion status.
	reqDone := true
	for _, r := range e.req {
		g := good[r.net]
		if g.IsKnown() && g != r.val {
			return false // requirement violated: dead branch
		}
		if g != r.val {
			reqDone = false
		}
	}

	if e.propagate {
		if reqDone && fault.Detects(good, faulty, e.c.Outputs...) {
			e.result = e.assign.Clone()
			return true
		}
		if !e.dReachable(good, faulty) {
			return false
		}
	} else if reqDone {
		e.result = e.assign.Clone()
		return true
	}

	objNet, objVal := e.objective(good, faulty)
	if objNet == "" {
		return false
	}
	pi, piVal, ok := e.backtrace(objNet, objVal, good)
	if !ok {
		return false
	}
	for k, v := 0, piVal; k < 2; k, v = k+1, piVal.Not() {
		e.assign[pi] = v
		if e.search() {
			return true
		}
		delete(e.assign, pi)
		e.backtracks++
		if e.backtracks > e.maxBacktracks {
			e.aborted = true
			return false
		}
		if e.aborted {
			return false
		}
	}
	return false
}

// dReachable is the X-path check: can a good/faulty difference still reach
// a primary output? A net is "alive" if its good or faulty value is X, or
// the two differ; we flood forward from the fault site through alive nets.
func (e *podemEngine) dReachable(good, faulty map[string]logic.Value) bool {
	alive := func(n string) bool {
		a, b := good[n], faulty[n]
		return !a.IsKnown() || !b.IsKnown() || a != b
	}
	if !alive(e.site) {
		return false
	}
	isPO := make(map[string]bool, len(e.c.Outputs))
	for _, po := range e.c.Outputs {
		isPO[po] = true
	}
	seen := map[string]bool{e.site: true}
	queue := []string{e.site}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if isPO[n] {
			return true
		}
		for _, g := range e.c.Fanout(n) {
			out := g.Output
			if !seen[out] && alive(out) {
				seen[out] = true
				queue = append(queue, out)
			}
		}
	}
	return false
}

// objective picks the next goal: first an unjustified requirement, then a
// D-frontier advance.
func (e *podemEngine) objective(good, faulty map[string]logic.Value) (string, logic.Value) {
	for _, r := range e.req {
		if good[r.net] == logic.X {
			return r.net, r.val
		}
	}
	if !e.propagate {
		return "", logic.X
	}
	// D-frontier: gates with a known good/faulty difference on an input and
	// an undecided output; objective sets an X side-input non-controlling.
	// With SCOAP guidance the frontier gate with the most observable
	// output is advanced first.
	var bestIn string
	var bestVal logic.Value
	bestCO := int(^uint(0) >> 1)
	for _, g := range e.c.Ordered() {
		outA, outB := good[g.Output], faulty[g.Output]
		if outA.IsKnown() && outB.IsKnown() {
			continue // output already decided (D or equal)
		}
		hasD := false
		for _, in := range g.Inputs {
			a, b := good[in], faulty[in]
			if a.IsKnown() && b.IsKnown() && a != b {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		for idx, in := range g.Inputs {
			if good[in] == logic.X {
				if e.tb == nil {
					return in, sideInputValue(g.Type, idx)
				}
				if co := e.tb.CO[g.Output]; co < bestCO {
					bestCO = co
					bestIn, bestVal = in, sideInputValue(g.Type, idx)
				}
				break
			}
		}
	}
	if bestIn != "" {
		return bestIn, bestVal
	}
	return "", logic.X
}

// sideInputValue returns the non-controlling value to put on a side input
// when propagating through a gate of the given type.
func sideInputValue(t logic.GateType, idx int) logic.Value {
	switch t {
	case logic.Nand, logic.And:
		return logic.One
	case logic.Nor, logic.Or:
		return logic.Zero
	case logic.Aoi21:
		if idx == 2 {
			return logic.Zero // keep the OR branch quiet
		}
		return logic.One // sensitize the AND branch
	case logic.Oai21:
		if idx == 2 {
			return logic.One
		}
		return logic.Zero
	default: // Xor/Xnor/Inv/Buf: any value sensitizes
		return logic.Zero
	}
}

// backtrace maps an objective (net, value) to a primary-input decision by
// walking back through X-valued nets. With SCOAP guidance the X input
// whose required value is cheapest to control is taken at each gate.
func (e *podemEngine) backtrace(net string, val logic.Value, good map[string]logic.Value) (string, logic.Value, bool) {
	for !e.c.IsInput(net) {
		g := e.c.Driver(net)
		if g == nil {
			return "", logic.X, false
		}
		inVal := backtraceValue(g.Type, val)
		next := ""
		bestCC := int(^uint(0) >> 1)
		for _, in := range g.Inputs {
			if good[in] != logic.X {
				continue
			}
			if e.tb == nil {
				next = in
				break
			}
			cc := e.tb.CC0[in]
			if inVal == logic.One {
				cc = e.tb.CC1[in]
			}
			if cc < bestCC {
				bestCC = cc
				next = in
			}
		}
		if next == "" {
			return "", logic.X, false // output X with all inputs known: impossible
		}
		val = inVal
		net = next
	}
	return net, val, true
}

// backtraceValue transforms the desired output value into a heuristic
// input target when crossing a gate.
func backtraceValue(t logic.GateType, v logic.Value) logic.Value {
	switch t {
	case logic.Inv, logic.Nand, logic.Nor, logic.Xnor, logic.Aoi21, logic.Oai21:
		return v.Not()
	default:
		return v
	}
}
