package atpg

import (
	"slices"
	"strings"
	"sync"

	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// podemView is the read-only state that every PODEM search of one
// generation run shares, over the dense net IDs and gate positions of
// logic.Index. It is built once per run, before any worker starts,
// because the circuit's index is built lazily and without locking.
type podemView struct {
	x      *logic.Index
	order  []int32 // gate positions in Ordered() order: the D-frontier scan order
	driver []int32 // driving gate position by net ID; -1 marks the primary inputs

	// SCOAP measures by net ID; nil when guidance is disabled.
	cc0, cc1, co []int

	scratch sync.Pool  // *podemScratch sized to x
	graders sync.Pool  // *PairGrader over the circuit, for one-pair validation
	provers proverPool // over the circuit, for Prune and SATFallback
}

// proverPool is a run's free list of exact provers. Get takes an idle
// prover or builds one with New, and Put returns one. Unlike a sync.Pool
// it never drops an idle prover, so a run builds at most one prover per
// goroutine proving at once, and none when nothing is proved.
type proverPool struct {
	New func() any // builds a *netcheck.Prover

	mu    sync.Mutex
	idle  []*netcheck.Prover
	built int // provers New has built
}

// Get takes an idle prover, or builds one when none is idle.
func (q *proverPool) Get() *netcheck.Prover {
	q.mu.Lock()
	if n := len(q.idle); n > 0 {
		p := q.idle[n-1]
		q.idle = q.idle[:n-1]
		q.mu.Unlock()
		return p
	}
	q.built++
	q.mu.Unlock()
	return q.New().(*netcheck.Prover)
}

// Put returns a prover to the idle list.
func (q *proverPool) Put(p *netcheck.Prover) {
	q.mu.Lock()
	q.idle = append(q.idle, p)
	q.mu.Unlock()
}

// newPodemView indexes c for PODEM and, unless opt disables it, computes
// the SCOAP guidance.
func newPodemView(c *logic.Circuit, opt *Options) *podemView {
	x := c.Index()
	n := x.NumNets()
	v := &podemView{x: x, order: make([]int32, 0, len(x.Gates)), driver: make([]int32, n)}
	for id := range v.driver {
		v.driver[id] = -1
	}
	for gi, out := range x.GateOut {
		v.driver[out] = int32(gi)
	}
	for _, g := range c.Ordered() {
		v.order = append(v.order, int32(x.GatePos(g)))
	}
	if !opt.DisableSCOAP {
		tb := logic.ComputeTestability(c)
		v.cc0, v.cc1, v.co = make([]int, n), make([]int, n), make([]int, n)
		for id, name := range x.NetNames {
			v.cc0[id], v.cc1[id], v.co[id] = tb.CC0[name], tb.CC1[name], tb.CO[name]
		}
	}
	maxIn := 0
	for _, ins := range x.GateIn {
		maxIn = max(maxIn, len(ins))
	}
	v.graders.New = func() any { return fault.NewPairGrader(c, 0, nil) }
	v.provers.New = func() any { return netcheck.NewProver(c, netcheck.DefaultExactBudget) }
	v.scratch.New = func() any {
		return &podemScratch{
			good:    make([]logic.Value, n+1),
			faulty:  make([]logic.Value, n+1),
			buckets: make([][]int32, x.MaxLevel+1),
			qmark:   make([]uint32, len(x.Gates)),
			seen:    make([]uint32, n),
			stack:   make([]int32, 0, n),
			in:      make([]logic.Value, 0, maxIn),
		}
	}
	return v
}

// podemScratch is one worker's search state. Both machines' values are
// indexed by net ID; the extra last slot stands for every net the
// circuit lacks and holds Zero in both machines, as a missing key of a
// value map reads. Changed values go on the undo trail, so a backtrack
// restores the state before a decision without re-evaluating anything.
type podemScratch struct {
	good, faulty []logic.Value
	trail        []podemUndo

	// Implication queue: gate positions bucketed by level, and the
	// epoch-stamped marks that keep a gate from being queued twice.
	buckets [][]int32
	minLvl  int
	qmark   []uint32
	seen    []uint32 // dReachable visit stamps
	epoch   uint32

	stack []int32       // dReachable work list
	in    []logic.Value // gate input gather buffer
}

// podemUndo is one trail entry: a net's values before a change.
type podemUndo struct {
	net          int32
	good, faulty logic.Value
}

// begin opens a new stamp epoch for the queue and visit marks, with an
// empty queue.
func (sc *podemScratch) begin() {
	sc.minLvl = len(sc.buckets)
	sc.epoch++
	if sc.epoch == 0 { // stamp wrap: stale stamps could alias, reset them
		clear(sc.qmark)
		clear(sc.seen)
		sc.epoch = 1
	}
}

// undo pops the trail down to mark, restoring every value changed since.
//
//obdcheck:hotpath
func (sc *podemScratch) undo(mark int) {
	for i := len(sc.trail) - 1; i >= mark; i-- {
		u := sc.trail[i]
		sc.good[u.net], sc.faulty[u.net] = u.good, u.faulty
	}
	sc.trail = sc.trail[:mark]
}

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
// objective/backtrace logic is only a search-direction heuristic. Each
// decision implies only the gates whose inputs changed, and a backtrack
// undoes the decision from the trail.
type podemEngine struct {
	v         *podemView
	sc        *podemScratch
	req       []netReq // sorted by net name
	site      int32    // propagate only; the missing-net slot when the circuit lacks it
	faultyVal logic.Value
	propagate bool

	maxBacktracks int
	backtracks    int
	aborted       bool

	result Pattern
}

// netReq is a required good value on a net, by name and by ID.
type netReq struct {
	net string
	id  int32
	val logic.Value
}

// newPodem builds an engine. For propagate problems req must include the
// fault site's required good value. req is sorted in place.
func newPodem(v *podemView, req []netReq, site string, faultyVal logic.Value, propagate bool, maxBacktracks int) *podemEngine {
	slices.SortFunc(req, func(a, b netReq) int { return strings.Compare(a.net, b.net) })
	for i := range req {
		req[i].id = v.netID(req[i].net)
	}
	e := &podemEngine{v: v, req: req, faultyVal: faultyVal, propagate: propagate, maxBacktracks: maxBacktracks}
	if propagate {
		e.site = v.netID(site)
	}
	return e
}

// netID resolves a net name to its ID, or to the missing-net slot.
func (v *podemView) netID(net string) int32 {
	if id, ok := v.x.NetIDs[net]; ok {
		return int32(id)
	}
	return int32(v.x.NumNets())
}

// run executes the search. On success the returned pattern assigns every
// primary input: the search's decisions, and Zero for its don't-cares.
func (e *podemEngine) run() (Pattern, Status) {
	if e.propagate && int(e.site) == e.v.x.NumNets() {
		// No net to fault: the faulty machine is the good one.
		return nil, Untestable
	}
	e.sc = e.v.scratch.Get().(*podemScratch)
	e.reset()
	found := e.search()
	e.v.scratch.Put(e.sc)
	e.sc = nil
	if found {
		return e.result, Detected
	}
	if e.aborted {
		return nil, Aborted
	}
	return nil, Untestable
}

// reset sets every net to X in both machines, then forces the fault site
// in the faulty machine and implies it.
func (e *podemEngine) reset() {
	sc := e.sc
	for i := range sc.good {
		sc.good[i], sc.faulty[i] = logic.X, logic.X
	}
	missing := len(sc.good) - 1
	sc.good[missing], sc.faulty[missing] = logic.Zero, logic.Zero
	sc.trail = sc.trail[:0]
	if e.propagate {
		sc.begin()
		e.set(e.site, logic.X, e.faultyVal)
		e.imply()
	}
}

// assign decides primary input pi and implies the decision, returning
// the trail mark that undoes it.
//
//obdcheck:hotpath
func (e *podemEngine) assign(pi int32, val logic.Value) int {
	sc := e.sc
	mark := len(sc.trail)
	sc.begin()
	f := val
	if !e.propagate {
		f = logic.X // the faulty machine is unused
	} else if pi == e.site {
		f = e.faultyVal
	}
	e.set(pi, val, f)
	e.imply()
	return mark
}

// set records net's values on the trail, stores the new ones and queues
// the net's consumers for re-evaluation.
//
//obdcheck:hotpath
func (e *podemEngine) set(net int32, good, faulty logic.Value) {
	sc, x := e.sc, e.v.x
	sc.trail = append(sc.trail, podemUndo{net: net, good: sc.good[net], faulty: sc.faulty[net]})
	sc.good[net], sc.faulty[net] = good, faulty
	for _, gi := range x.Fanouts[net] {
		if sc.qmark[gi] == sc.epoch {
			continue
		}
		sc.qmark[gi] = sc.epoch
		lvl := int(x.GateLevel[gi])
		sc.buckets[lvl] = append(sc.buckets[lvl], gi)
		sc.minLvl = min(sc.minLvl, lvl)
	}
}

// imply drains the queue level by level: each queued gate is evaluated
// once in both machines (level order makes its inputs final), and its
// output is set only when a value changed. The fault site keeps its
// forced faulty value.
//
//obdcheck:hotpath
func (e *podemEngine) imply() {
	sc, x := e.sc, e.v.x
	for lvl := sc.minLvl; lvl < len(sc.buckets); lvl++ {
		bucket := sc.buckets[lvl]
		// set queues consumers on strictly higher levels only, so
		// ranging the snapshot is safe.
		for _, gi := range bucket {
			g, out := x.Gates[gi], x.GateOut[gi]
			in := sc.in[:0]
			for _, id := range x.GateIn[gi] {
				in = append(in, sc.good[id])
			}
			good, faulty := g.Eval(in), logic.X
			if e.propagate {
				if out == e.site {
					faulty = e.faultyVal
				} else {
					in = in[:0]
					for _, id := range x.GateIn[gi] {
						in = append(in, sc.faulty[id])
					}
					faulty = g.Eval(in)
				}
			}
			if good != sc.good[out] || faulty != sc.faulty[out] {
				e.set(out, good, faulty)
			}
		}
		sc.buckets[lvl] = bucket[:0]
	}
}

func (e *podemEngine) search() bool {
	sc := e.sc
	// Requirement check and completion status.
	reqDone := true
	for _, r := range e.req {
		g := sc.good[r.id]
		if g.IsKnown() && g != r.val {
			return false // requirement violated: dead branch
		}
		if g != r.val {
			reqDone = false
		}
	}

	if e.propagate {
		if reqDone && e.detected() {
			e.result = e.pattern()
			return true
		}
		if !e.dReachable() {
			return false
		}
	} else if reqDone {
		e.result = e.pattern()
		return true
	}

	objNet, objVal, ok := e.objective()
	if !ok {
		return false
	}
	pi, piVal, ok := e.backtrace(objNet, objVal)
	if !ok {
		return false
	}
	for k, v := 0, piVal; k < 2; k, v = k+1, piVal.Not() {
		mark := e.assign(pi, v)
		if e.search() {
			return true
		}
		sc.undo(mark)
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

// detected reports whether some primary output carries a known good/
// faulty difference (fault.Detects over the value arrays).
func (e *podemEngine) detected() bool {
	for _, id := range e.v.x.OutputIDs {
		a, b := e.sc.good[id], e.sc.faulty[id]
		if a.IsKnown() && b.IsKnown() && a != b {
			return true
		}
	}
	return false
}

// validates reports whether the pair tp detects f, on a one-lane grader
// taken from the view's pool.
func (v *podemView) validates(f fault.OBD, tp *TwoPattern) bool {
	pg := v.graders.Get().(*PairGrader)
	pg.Append(tp.V1, tp.V2)
	ok := pg.Detects(f)
	pg.Reset()
	v.graders.Put(pg)
	return ok
}

// prove decides f exactly under DefaultExactBudget, on a prover taken
// from the view's pool. A prover whose call panicked is not put back.
func (v *podemView) prove(f fault.OBD) netcheck.ExactVerdict {
	p := v.provers.Get()
	//obdcheck:allow paniccontract — the encoder's DFF panic is unreachable: GenerateOBDTest returns Errored and resumeTests a typed *SequentialCircuitError on DFF-bearing circuits before any view proves a fault
	ev := p.Prove(f)
	v.provers.Put(p)
	return ev
}

// pattern is the current primary-input assignment as a Pattern, every
// input the search left undecided filled with Zero: the search's one map
// write, made once it succeeds.
func (e *podemEngine) pattern() Pattern {
	x := e.v.x
	p := make(Pattern, len(x.InputIDs))
	for _, id := range x.InputIDs {
		v := e.sc.good[id]
		if !v.IsKnown() {
			v = logic.Zero
		}
		p[x.NetNames[id]] = v
	}
	return p
}

// alive reports whether a good/faulty difference may still show on net:
// either value is X, or the two differ.
func (sc *podemScratch) alive(net int32) bool {
	a, b := sc.good[net], sc.faulty[net]
	return !a.IsKnown() || !b.IsKnown() || a != b
}

// dReachable is the X-path check: can a good/faulty difference still reach
// a primary output? We flood forward from the fault site through alive
// nets.
func (e *podemEngine) dReachable() bool {
	sc, x := e.sc, e.v.x
	if !sc.alive(e.site) {
		return false
	}
	sc.begin()
	sc.seen[e.site] = sc.epoch
	sc.stack = append(sc.stack[:0], e.site)
	for len(sc.stack) > 0 {
		n := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		if x.IsPO[n] {
			return true
		}
		for _, gi := range x.Fanouts[n] {
			if out := x.GateOut[gi]; sc.seen[out] != sc.epoch && sc.alive(out) {
				sc.seen[out] = sc.epoch
				sc.stack = append(sc.stack, out)
			}
		}
	}
	return false
}

// objective picks the next goal: first an unjustified requirement, then a
// D-frontier advance.
func (e *podemEngine) objective() (int32, logic.Value, bool) {
	sc, v := e.sc, e.v
	for _, r := range e.req {
		if sc.good[r.id] == logic.X {
			return r.id, r.val, true
		}
	}
	if !e.propagate {
		return 0, logic.X, false
	}
	// D-frontier: gates with a known good/faulty difference on an input and
	// an undecided output; objective sets an X side-input non-controlling.
	// With SCOAP guidance the frontier gate with the most observable
	// output is advanced first.
	var bestIn int32
	var bestVal logic.Value
	bestCO := int(^uint(0) >> 1)
	found := false
	for _, gi := range v.order {
		out := v.x.GateOut[gi]
		if sc.good[out].IsKnown() && sc.faulty[out].IsKnown() {
			continue // output already decided (D or equal)
		}
		ins := v.x.GateIn[gi]
		hasD := false
		for _, in := range ins {
			a, b := sc.good[in], sc.faulty[in]
			if a.IsKnown() && b.IsKnown() && a != b {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		for idx, in := range ins {
			if sc.good[in] == logic.X {
				t := v.x.Gates[gi].Type
				if v.co == nil {
					return in, sideInputValue(t, idx), true
				}
				if co := v.co[out]; co < bestCO {
					bestCO, found = co, true
					bestIn, bestVal = in, sideInputValue(t, idx)
				}
				break
			}
		}
	}
	return bestIn, bestVal, found
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
// walking back through X-valued nets: the first X input in pin order, or
// with SCOAP guidance the X input whose required value is cheapest to
// control.
func (e *podemEngine) backtrace(net int32, val logic.Value) (int32, logic.Value, bool) {
	sc, v := e.sc, e.v
	for v.driver[net] >= 0 {
		gi := v.driver[net]
		inVal := backtraceValue(v.x.Gates[gi].Type, val)
		next := int32(-1)
		bestCC := int(^uint(0) >> 1)
		for _, in := range v.x.GateIn[gi] {
			if sc.good[in] != logic.X {
				continue
			}
			if v.cc0 == nil {
				next = in
				break
			}
			cc := v.cc0[in]
			if inVal == logic.One {
				cc = v.cc1[in]
			}
			if cc < bestCC {
				bestCC = cc
				next = in
			}
		}
		if next < 0 {
			return 0, logic.X, false // output X with all inputs known: impossible
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
