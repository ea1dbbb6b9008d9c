package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// drain accumulates an engine's backtracks into the configured sink.
func drain(opt *Options, engines ...*podemEngine) {
	if opt.BacktrackSink == nil {
		return
	}
	for _, e := range engines {
		*opt.BacktrackSink += e.backtracks
	}
}

// GenerateStuckAtTest produces a single pattern detecting the stuck-at
// fault, or reports Untestable/Aborted.
func GenerateStuckAtTest(c *logic.Circuit, f fault.StuckAt, opt *Options) (Pattern, Status) {
	if opt == nil {
		opt = DefaultOptions()
	}
	if c.HasDFF() {
		return nil, Errored // sequential circuit: use internal/seq or the combinational core
	}
	return generateStuckAtTestWith(f, opt, newPodemView(c, opt))
}

// generateStuckAtTestWith is GenerateStuckAtTest over a prebuilt PODEM
// view, so batch drivers share one index view and testability analysis
// across faults (and workers).
func generateStuckAtTestWith(f fault.StuckAt, opt *Options, pv *podemView) (Pattern, Status) {
	e := newPodem(pv, []netReq{{net: f.Net, val: f.V.Not()}}, f.Net, f.V, true, opt.MaxBacktracks)
	p, st := e.run()
	drain(opt, e)
	if st != Detected {
		return nil, st
	}
	return p, Detected
}

// GenerateTransitionTest produces a two-pattern test for a classical
// transition fault: frame 2 detects the site holding its old value
// (a stuck-at test with the required final value), frame 1 justifies the
// initial value. Frame 2 is free to cause the transition with any input
// change — the insensitivity that separates this model from OBD.
func GenerateTransitionTest(c *logic.Circuit, f fault.Transition, opt *Options) (*TwoPattern, Status) {
	if opt == nil {
		opt = DefaultOptions()
	}
	if c.HasDFF() {
		return nil, Errored // sequential circuit: use internal/seq or the combinational core
	}
	return generateTransitionTestWith(f, opt, newPodemView(c, opt))
}

// generateTransitionTestWith is GenerateTransitionTest over a prebuilt
// PODEM view.
func generateTransitionTestWith(f fault.Transition, opt *Options, pv *podemView) (*TwoPattern, Status) {
	var from, to logic.Value
	if f.Rising {
		from, to = logic.Zero, logic.One
	} else {
		from, to = logic.One, logic.Zero
	}
	e2 := newPodem(pv, []netReq{{net: f.Net, val: to}}, f.Net, from, true, opt.MaxBacktracks)
	v2, st := e2.run()
	drain(opt, e2)
	if st != Detected {
		return nil, st
	}
	e1 := newPodem(pv, []netReq{{net: f.Net, val: from}}, "", logic.X, false, opt.MaxBacktracks)
	v1, st1 := e1.run()
	drain(opt, e1)
	if st1 != Detected {
		return nil, st1
	}
	return &TwoPattern{V1: v1, V2: v2}, Detected
}

// GenerateOBDTest produces a two-pattern test for an OBD fault by
// enumerating the gate's local excitation pairs (Section 4.1 of the
// paper), justifying the first pattern and justifying-and-propagating the
// second. The filled test is validated on the event-driven grader (which
// the property tests pin to the scalar DetectsOBD) before being returned.
func GenerateOBDTest(c *logic.Circuit, f fault.OBD, opt *Options) (*TwoPattern, Status) {
	if opt == nil {
		opt = DefaultOptions()
	}
	if c.HasDFF() {
		return nil, Errored // sequential circuit: use internal/seq or the combinational core
	}
	pv := newPodemView(c, opt)
	if opt.Prune && pv.prove(f).Untestable() {
		return nil, Untestable
	}
	tp, st := generateOBDTestWith(f, opt, pv)
	if st == Aborted && opt.SATFallback {
		return satResolveOBD(c, f, opt, pv)
	}
	return tp, st
}

// pinReqs appends to req the values vals demands on g's input pins, one
// requirement per net. It reports false when one net feeds two pins with
// different demands.
func pinReqs(req []netReq, g *logic.Gate, vals []logic.Value) ([]netReq, bool) {
next:
	for i, in := range g.Inputs {
		for _, r := range req {
			if r.net == in {
				if r.val != vals[i] {
					return nil, false
				}
				continue next
			}
		}
		req = append(req, netReq{net: in, val: vals[i]})
	}
	return req, true
}

// generateOBDTestWith is GenerateOBDTest over a prebuilt PODEM view.
func generateOBDTestWith(f fault.OBD, opt *Options, pv *podemView) (*TwoPattern, Status) {
	pairs := f.ExcitationPairs()
	if len(pairs) == 0 {
		return nil, Untestable
	}
	anyAborted := false
	for _, pr := range pairs {
		o1 := f.Gate.Eval(pr.V1)
		o2 := f.Gate.Eval(pr.V2)
		req2, ok := pinReqs([]netReq{{net: f.Gate.Output, val: o2}}, f.Gate, pr.V2)
		if !ok {
			continue
		}
		e2 := newPodem(pv, req2, f.Gate.Output, o1, true, opt.MaxBacktracks)
		v2, st := e2.run()
		drain(opt, e2)
		if st == Aborted {
			anyAborted = true
			continue
		}
		if st != Detected {
			continue
		}
		req1, ok := pinReqs(nil, f.Gate, pr.V1)
		if !ok {
			continue
		}
		e1 := newPodem(pv, req1, "", logic.X, false, opt.MaxBacktracks)
		v1, st1 := e1.run()
		drain(opt, e1)
		if st1 == Aborted {
			anyAborted = true
			continue
		}
		if st1 != Detected {
			continue
		}
		tp := &TwoPattern{V1: v1, V2: v2}
		if pv.validates(f, tp) {
			return tp, Detected
		}
		// The pair justified locally but the filled vectors do not detect
		// (possible when fills disturb reconvergent excitation); try the
		// next excitation pair.
		anyAborted = true
	}
	if anyAborted {
		return nil, Aborted
	}
	return nil, Untestable
}

// Result pairs a fault name with the generation outcome.
type Result struct {
	Fault  string
	Status Status
	Test   *TwoPattern // nil unless Status == Detected and not drop-covered
	Err    error       // non-nil only for Status == Errored: the per-item *ItemError
}

// TestSet is the outcome of a batch generation run.
type TestSet struct {
	Tests    []TwoPattern
	Results  []Result
	Coverage Coverage
}

// StuckAtTestSet is the single-pattern analogue of TestSet.
type StuckAtTestSet struct {
	Tests    []Pattern
	Results  []Result
	Coverage Coverage
}
